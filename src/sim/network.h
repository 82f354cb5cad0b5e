// Simulated message-passing network.
//
// Nodes register a handler; Send() samples the link latency and schedules
// delivery on the event loop. The network also counts messages and bytes
// per node, which the resource benchmarks use as a coordination-cost proxy.
#ifndef GEOTP_SIM_NETWORK_H_
#define GEOTP_SIM_NETWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "runtime/message.h"
#include "runtime/runtime.h"
#include "sim/event_loop.h"
#include "sim/latency.h"

namespace geotp {
namespace sim {

/// Per-node traffic counters.
struct TrafficStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
};

/// The simulated network implements the runtime transport seam: Send()
/// samples the link latency and schedules delivery on the event loop.
class Network : public runtime::ITransport {
 public:
  using Handler = runtime::ITransport::Handler;

  Network(EventLoop* loop, LatencyMatrix matrix, uint64_t seed = 42);

  /// The latency matrix is mutable at runtime to model latency changes
  /// (Fig. 11b re-shapes links every 40 simulated seconds).
  LatencyMatrix& matrix() { return matrix_; }
  const LatencyMatrix& matrix() const { return matrix_; }

  int num_nodes() const { return matrix_.num_nodes(); }

  /// Registers the message handler for a node. Must be called before any
  /// message addressed to that node is delivered.
  void RegisterNode(NodeId node, Handler handler) override;

  /// Marks a node as crashed: messages to it are silently dropped until
  /// Restore() is called (used by the failure-recovery tests).
  void Partition(NodeId node) override;
  void Restore(NodeId node) override;
  bool IsPartitioned(NodeId node) const override;

  /// Sends a message; delivery is scheduled after one sampled one-way delay.
  /// `msg->from` / `msg->to` must be filled in by the caller.
  void Send(std::unique_ptr<runtime::MessageBase> msg) override;

  const TrafficStats& StatsFor(NodeId node) const;
  uint64_t total_messages() const { return total_messages_; }

 private:
  /// Delivers the message parked in `slot` (or drops it at a partitioned
  /// receiver) and frees the slot.
  void Deliver(uint32_t slot);

  EventLoop* loop_;
  LatencyMatrix matrix_;
  Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<TrafficStats> stats_;
  std::vector<bool> partitioned_;
  /// Messages between Send() and delivery. The delivery event captures
  /// only (this, slot), which fits std::function's inline buffer, so a send
  /// allocates nothing beyond the message itself. Messages whose events
  /// are dropped unfired are freed with the network.
  std::vector<std::unique_ptr<runtime::MessageBase>> in_flight_;
  std::vector<uint32_t> free_in_flight_;
  uint64_t total_messages_ = 0;
};

}  // namespace sim
}  // namespace geotp

#endif  // GEOTP_SIM_NETWORK_H_
