#include "sim/network.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/profiler.h"

namespace geotp {
namespace sim {

Network::Network(EventLoop* loop, LatencyMatrix matrix, uint64_t seed)
    : loop_(loop),
      matrix_(std::move(matrix)),
      rng_(seed),
      handlers_(static_cast<size_t>(matrix_.num_nodes())),
      stats_(static_cast<size_t>(matrix_.num_nodes())),
      partitioned_(static_cast<size_t>(matrix_.num_nodes()), false) {}

void Network::RegisterNode(NodeId node, Handler handler) {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  handlers_[static_cast<size_t>(node)] = std::move(handler);
}

void Network::Partition(NodeId node) {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  partitioned_[static_cast<size_t>(node)] = true;
}

void Network::Restore(NodeId node) {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  partitioned_[static_cast<size_t>(node)] = false;
}

bool Network::IsPartitioned(NodeId node) const {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  return partitioned_[static_cast<size_t>(node)];
}

void Network::Send(std::unique_ptr<MessageBase> msg) {
  const NodeId from = msg->from;
  const NodeId to = msg->to;
  GEOTP_CHECK(from >= 0 && from < num_nodes(), "from " << from);
  GEOTP_CHECK(to >= 0 && to < num_nodes(), "to " << to);
  // A partitioned sender cannot emit messages either.
  if (partitioned_[static_cast<size_t>(from)]) return;

  auto& sender_stats = stats_[static_cast<size_t>(from)];
  sender_stats.messages_sent++;
  sender_stats.bytes_sent += msg->WireSize();
  ++total_messages_;

  const Micros delay = matrix_.SampleOneWay(from, to, rng_);
  uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  in_flight_[slot] = std::move(msg);
  loop_->Schedule(delay, [this, slot]() { Deliver(slot); });
}

void Network::Deliver(uint32_t slot) {
  std::unique_ptr<MessageBase> msg = std::move(in_flight_[slot]);
  free_in_flight_.push_back(slot);
  const NodeId to = msg->to;
  if (partitioned_[static_cast<size_t>(to)]) return;  // dropped at the NIC
  auto& handler = handlers_[static_cast<size_t>(to)];
  GEOTP_CHECK(handler != nullptr, "no handler for node " << to);
  stats_[static_cast<size_t>(to)].messages_received++;
  obs::Profiler& profiler = obs::GlobalProfiler();
  if (!profiler.enabled()) {
    handler(std::move(msg));
    return;
  }
  // Sim-perf profile: host time the simulator spends handling each
  // message kind — virtual time is stopped here, so this is pure
  // simulator overhead attribution.
  const int msg_type = static_cast<int>(msg->type());
  const auto t0 = std::chrono::steady_clock::now();
  handler(std::move(msg));
  const auto t1 = std::chrono::steady_clock::now();
  profiler.RecordHandler(
      msg_type,
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
}

const TrafficStats& Network::StatsFor(NodeId node) const {
  GEOTP_CHECK(node >= 0 && node < num_nodes(), "node " << node);
  return stats_[static_cast<size_t>(node)];
}

}  // namespace sim
}  // namespace geotp
