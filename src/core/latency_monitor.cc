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
    if (!NeedsPing(target.node, shard_epoch)) {
      ++stats_.pings_skipped;
      continue;
    }
    auto ping = std::make_unique<protocol::PingRequest>();
    ping->from = self_;
    ping->to = target.node;
    ping->seq = ++seq_;
    ping->sent_at = timer_->Now();
    ping->shard_epoch = shard_epoch;
    network_->Send(std::move(ping));
    ++stats_.pings_sent;
  }
  timer_->Schedule(kPingInterval, [this]() { SendPings(); });
}

bool LatencyMonitor::NeedsPing(NodeId target, uint64_t shard_epoch) const {
  // Followers carry no execute traffic, so they fall through to a ping.
  auto traffic = last_traffic_at_.find(target);
  if (traffic == last_traffic_at_.end() ||
      timer_->Now() - traffic->second >= kPingInterval) {
    return true;
  }
  // The DM is behind this node's map: only a pong carries the map back.
  auto epoch = reported_epoch_.find(target);
  return epoch != reported_epoch_.end() && epoch->second > shard_epoch;
}

namespace {

/// est = alpha * est + (1 - alpha) * sample; the first sample seeds.
template <class T>
void Blend(std::unordered_map<NodeId, T>& estimates, NodeId node, T sample,
           double alpha) {
  auto [it, first] = estimates.try_emplace(node, sample);
  if (first) return;
  it->second = static_cast<T>(alpha * static_cast<double>(it->second) +
                              (1.0 - alpha) * static_cast<double>(sample));
}

}  // namespace

void LatencyMonitor::OnPong(const protocol::PingResponse& pong) {
  ++stats_.pongs_received;
  RecordSample(pong.from, timer_->Now() - pong.sent_at);
}

void LatencyMonitor::OnTrafficSample(NodeId node, Micros rtt) {
  ++stats_.traffic_samples;
  last_traffic_at_[node] = timer_->Now();
  RecordSample(node, rtt);
}

void LatencyMonitor::OnReport(NodeId node, uint64_t inflight,
                              uint64_t shard_epoch) {
  reported_epoch_[node] = shard_epoch;
  const auto load = static_cast<double>(inflight);
  Blend(load_estimates_, node, load, config_.ewma_alpha);
  const NodeId alias = AliasOf(node);
  if (alias != kInvalidNode) {
    Blend(load_estimates_, alias, load, config_.ewma_alpha);
  }
}

void LatencyMonitor::RecordSample(NodeId node, Micros sample) {
  last_sample_at_[node] = timer_->Now();
  Blend(estimates_, node, sample, config_.ewma_alpha);
  const NodeId alias = AliasOf(node);
  if (alias != kInvalidNode) {
    Blend(estimates_, alias, sample, config_.ewma_alpha);
  }
}

NodeId LatencyMonitor::AliasOf(NodeId node) const {
  auto it = alias_of_.find(node);
  return it == alias_of_.end() || it->second == node ? kInvalidNode
                                                     : it->second;
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
  auto it = last_sample_at_.find(node);
  if (it == last_sample_at_.end()) return std::numeric_limits<Micros>::max();
  return timer_->Now() - it->second;
}

Micros LatencyMonitor::MaxRtt(const std::vector<NodeId>& nodes) const {
  Micros max_rtt = 0;
  for (NodeId node : nodes) max_rtt = std::max(max_rtt, RttEstimate(node));
  return max_rtt;
}

}  // namespace core
}  // namespace geotp
