// LatencyMonitor: the DM-side network latency statistic service.
//
// The paper's implementation runs a dedicated thread pinging each data
// source every 10 ms (§VI) and smooths samples with an exponential
// weighted moving average (§VII-D "online adaptivity"). Here traffic is
// the probe: every matched execute round trip is an RTT sample (the DM
// subtracts the time the request spent at the source, as TCP samples RTT
// from data segments), and a ping goes out only to a target that no such
// sample reached within the last kPingInterval. An idle source is pinged
// every interval, exactly as in the paper; a busy one almost never. Both
// kinds of sample feed one EWMA per node.
#ifndef GEOTP_CORE_LATENCY_MONITOR_H_
#define GEOTP_CORE_LATENCY_MONITOR_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "protocol/messages.h"
#include "runtime/runtime.h"

namespace geotp {
namespace core {

/// Ping period per data source (paper §VI: every 10 ms), and the window in
/// which a traffic sample makes a ping unnecessary.
constexpr Micros kPingInterval = MsToMicros(10);

struct LatencyMonitorConfig {
  /// EWMA history weight: est = alpha * est + (1 - alpha) * sample. The
  /// first sample of a node seeds its estimate instead of decaying from 0.
  double ewma_alpha = 0.8;
};

struct LatencyMonitorStats {
  uint64_t pings_sent = 0;
  uint64_t pings_skipped = 0;  ///< targets a fresh traffic sample covered
  uint64_t pongs_received = 0;
  uint64_t traffic_samples = 0;  ///< RTT samples from execute round trips
  GEOTP_STAT_FIELDS(pings_sent, pings_skipped, pongs_received,
                    traffic_samples)
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

  /// Feeds a pong's RTT back into the estimator (the owning middleware
  /// routes PingResponse messages here).
  void OnPong(const protocol::PingResponse& pong);

  /// Feeds the RTT of an execute round trip to `node`, the source's
  /// residence already subtracted. A node sampled this way within the last
  /// kPingInterval is not pinged. Pongs never suppress pings, so a node
  /// only pongs keep fresh is pinged every interval.
  void OnTrafficSample(NodeId node, Micros rtt);

  /// Feeds the load and shard-epoch report that a pong or an execute
  /// response carries. A node whose last report is ahead of the owner's
  /// shard-map epoch is pinged whatever its traffic: that pong carries the
  /// map.
  void OnReport(NodeId node, uint64_t inflight, uint64_t shard_epoch);

  /// Current RTT estimate to `node`. Falls back to 0 before any sample.
  Micros RttEstimate(NodeId node) const;

  /// EWMA of the capacity signal (branches in flight) the node reports.
  /// 0 before any report. Recorded under the same alias as RTT samples,
  /// so balancer lookups by logical source id work.
  double LoadEstimate(NodeId node) const;

  /// Virtual time since the last RTT sample of `node`, pong or traffic
  /// (max if it never had one). A crashed node's estimate freezes; callers
  /// doing lowest-RTT routing must treat stale estimates as unknown or
  /// they will pin themselves to a dead node.
  Micros SampleAge(NodeId node) const;

  /// Highest estimated RTT across the given nodes (max tau in Eq. 3).
  Micros MaxRtt(const std::vector<NodeId>& nodes) const;

  const LatencyMonitorStats& stats() const { return stats_; }

 private:
  void SendPings();
  /// True if `target` needs a ping this round (see OnTrafficSample and
  /// OnReport for the two reasons it may not).
  bool NeedsPing(NodeId target, uint64_t shard_epoch) const;
  /// The one RTT path: pongs and traffic samples land here, recorded under
  /// `node` and its alias.
  void RecordSample(NodeId node, Micros sample);
  /// The alias the latest ping round resolved for `node` (kInvalidNode if
  /// none or `node` itself).
  NodeId AliasOf(NodeId node) const;

  NodeId self_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  std::vector<NodeId> targets_;
  TargetProvider provider_;
  EpochProvider epoch_provider_;
  LatencyMonitorConfig config_;
  std::unordered_map<NodeId, Micros> estimates_;
  std::unordered_map<NodeId, double> load_estimates_;
  std::unordered_map<NodeId, Micros> last_sample_at_;
  std::unordered_map<NodeId, Micros> last_traffic_at_;
  /// Shard-map epoch of each node's latest report.
  std::unordered_map<NodeId, uint64_t> reported_epoch_;
  /// Alias recorded for each target physical node in the latest round.
  std::unordered_map<NodeId, NodeId> alias_of_;
  bool running_ = false;
  uint64_t seq_ = 0;
  LatencyMonitorStats stats_;
};

}  // namespace core
}  // namespace geotp

#endif  // GEOTP_CORE_LATENCY_MONITOR_H_
