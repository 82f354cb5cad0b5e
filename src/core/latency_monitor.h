// LatencyMonitor: the DM-side network latency statistic service.
//
// The paper's implementation runs a dedicated thread pinging each data
// source every 10 ms (§VI) and smooths samples with an exponential
// weighted moving average (§VII-D "online adaptivity"). Here the monitor
// schedules PingRequest messages on the event loop and updates per-node
// RTT estimates from the PingResponse round-trip times.
#ifndef GEOTP_CORE_LATENCY_MONITOR_H_
#define GEOTP_CORE_LATENCY_MONITOR_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "protocol/messages.h"
#include "runtime/runtime.h"
#include "sim/network.h"

namespace geotp {
namespace core {

struct LatencyMonitorConfig {
  Micros ping_interval = MsToMicros(10);
  /// EWMA history weight: est = alpha * est + (1 - alpha) * sample.
  double ewma_alpha = 0.8;
  /// Seed the estimates from the first sample instead of decaying from 0.
  bool bootstrap_first_sample = true;
};

/// One probe destination. `node` is the physical replica to ping; `alias`
/// is the id the sample is additionally recorded under — the replica
/// group's logical id for the current leader (so scheduler lookups by
/// logical source keep working across failovers), or `node` itself.
struct PingTarget {
  NodeId node = kInvalidNode;
  NodeId alias = kInvalidNode;
};

class LatencyMonitor {
 public:
  using TargetProvider = std::function<std::vector<PingTarget>()>;
  using EpochProvider = std::function<uint64_t()>;

  LatencyMonitor(NodeId self, runtime::ITransport* transport,
                 runtime::ITimer* timer, std::vector<NodeId> targets,
                 LatencyMonitorConfig config = LatencyMonitorConfig());

  /// Re-evaluated before every ping round, so probes follow failovers
  /// (the ROADMAP stale-leader bug: without this the monitor kept pinging
  /// the crashed seed leader forever). Without a provider the constructor
  /// targets are pinged as-is.
  void SetTargetProvider(TargetProvider provider) {
    provider_ = std::move(provider);
  }

  /// Shard-map anti-entropy: stamps every ping with the owner's current
  /// shard-map epoch so data sources can detect (and repair) a behind DM.
  void SetShardEpochProvider(EpochProvider provider) {
    epoch_provider_ = std::move(provider);
  }

  /// Begins the periodic ping schedule.
  void Start();
  void Stop() { running_ = false; }

  /// Feeds a pong back into the estimator (the owning middleware routes
  /// PingResponse messages here).
  void OnPong(const protocol::PingResponse& pong);

  /// Current RTT estimate to `node`. Falls back to 0 before any sample.
  Micros RttEstimate(NodeId node) const;

  /// EWMA of the capacity signal (branches in flight) the node piggybacks
  /// on its pongs. 0 before any sample. Recorded under the same alias as
  /// RTT samples, so balancer lookups by logical source id work.
  double LoadEstimate(NodeId node) const;

  /// EWMA of the saturation signal (run_queue / run_queue_limit) the node
  /// piggybacks on its pongs; 0 while the node reports no bound. Feeds the
  /// DM admission controller's source-pressure shed decision.
  double OccupancyEstimate(NodeId node) const;

  /// Worst occupancy estimate across every node that reported one — the
  /// admission controller sheds new work when any source is saturated
  /// (a distributed transaction is only as fast as its slowest branch).
  double MaxOccupancy() const;

  /// Virtual time since `node` last answered a ping (max if it never
  /// did). A crashed node's estimate freezes; callers doing
  /// lowest-RTT routing must treat stale estimates as unknown or they
  /// will pin themselves to a dead node.
  Micros SampleAge(NodeId node) const;

  /// Highest estimated RTT across the given nodes (max tau in Eq. 3).
  Micros MaxRtt(const std::vector<NodeId>& nodes) const;

  uint64_t pings_sent() const { return pings_sent_; }
  uint64_t pongs_received() const { return pongs_received_; }

 private:
  void SendPings();
  void RecordSample(NodeId node, Micros sample);
  void RecordLoad(NodeId node, uint64_t inflight);
  void RecordOccupancy(NodeId node, uint64_t run_queue, uint64_t limit);

  NodeId self_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  std::vector<NodeId> targets_;
  TargetProvider provider_;
  EpochProvider epoch_provider_;
  LatencyMonitorConfig config_;
  std::unordered_map<NodeId, Micros> estimates_;
  std::unordered_map<NodeId, double> load_estimates_;
  std::unordered_map<NodeId, double> occupancy_estimates_;
  std::unordered_map<NodeId, bool> seeded_;
  std::unordered_map<NodeId, Micros> last_pong_at_;
  /// Alias recorded for each pinged physical node in the latest round.
  std::unordered_map<NodeId, NodeId> alias_of_;
  bool running_ = false;
  uint64_t seq_ = 0;
  uint64_t pings_sent_ = 0;
  uint64_t pongs_received_ = 0;
};

}  // namespace core
}  // namespace geotp

#endif  // GEOTP_CORE_LATENCY_MONITOR_H_
