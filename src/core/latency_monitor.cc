#include "core/latency_monitor.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace geotp {
namespace core {

LatencyMonitor::LatencyMonitor(NodeId self, runtime::ITransport* transport,
                               runtime::ITimer* timer,
                               std::vector<NodeId> targets,
                               LatencyMonitorConfig config)
    : self_(self),
      network_(transport),
      timer_(timer),
      targets_(std::move(targets)),
      config_(config) {}

void LatencyMonitor::Start() {
  if (running_) return;
  running_ = true;
  SendPings();
}

void LatencyMonitor::SendPings() {
  if (!running_) return;
  // Resolve the probe set fresh each round: after a failover the provider
  // points at the new leader (and the followers), not the crashed seed.
  std::vector<PingTarget> targets;
  if (provider_) {
    targets = provider_();
  } else {
    targets.reserve(targets_.size());
    for (NodeId node : targets_) targets.push_back(PingTarget{node, node});
  }
  const uint64_t shard_epoch = epoch_provider_ ? epoch_provider_() : 0;
  for (const PingTarget& target : targets) {
    alias_of_[target.node] = target.alias;
    auto ping = std::make_unique<protocol::PingRequest>();
    ping->from = self_;
    ping->to = target.node;
    ping->seq = ++seq_;
    ping->sent_at = timer_->Now();
    ping->shard_epoch = shard_epoch;
    network_->Send(std::move(ping));
    ++pings_sent_;
  }
  timer_->Schedule(kPingInterval, [this]() { SendPings(); });
}

void LatencyMonitor::OnPong(const protocol::PingResponse& pong) {
  ++pongs_received_;
  const Micros sample = timer_->Now() - pong.sent_at;
  last_pong_at_[pong.from] = timer_->Now();
  RecordSample(pong.from, sample);
  RecordLoad(pong.from, pong.inflight);
  auto alias = alias_of_.find(pong.from);
  if (alias != alias_of_.end() && alias->second != pong.from &&
      alias->second != kInvalidNode) {
    RecordSample(alias->second, sample);
    RecordLoad(alias->second, pong.inflight);
  }
}

void LatencyMonitor::RecordLoad(NodeId node, uint64_t inflight) {
  const double alpha = config_.ewma_alpha;
  auto it = load_estimates_.find(node);
  if (it == load_estimates_.end()) {
    load_estimates_[node] = static_cast<double>(inflight);
    return;
  }
  it->second = alpha * it->second + (1.0 - alpha) * static_cast<double>(inflight);
}

void LatencyMonitor::RecordSample(NodeId node, Micros sample) {
  const double alpha = config_.ewma_alpha;
  auto it = estimates_.find(node);
  if (it == estimates_.end()) {
    estimates_[node] = sample;
    return;
  }
  it->second = static_cast<Micros>(alpha * static_cast<double>(it->second) +
                                   (1.0 - alpha) * static_cast<double>(sample));
}

Micros LatencyMonitor::RttEstimate(NodeId node) const {
  auto it = estimates_.find(node);
  return it == estimates_.end() ? 0 : it->second;
}

double LatencyMonitor::LoadEstimate(NodeId node) const {
  auto it = load_estimates_.find(node);
  return it == load_estimates_.end() ? 0.0 : it->second;
}

Micros LatencyMonitor::SampleAge(NodeId node) const {
  auto it = last_pong_at_.find(node);
  if (it == last_pong_at_.end()) return std::numeric_limits<Micros>::max();
  return timer_->Now() - it->second;
}

Micros LatencyMonitor::MaxRtt(const std::vector<NodeId>& nodes) const {
  Micros max_rtt = 0;
  for (NodeId node : nodes) max_rtt = std::max(max_rtt, RttEstimate(node));
  return max_rtt;
}

}  // namespace core
}  // namespace geotp
