#include "replication/log_shipper.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"
#include "protocol/wan_codec.h"

namespace geotp {
namespace replication {

using protocol::ReplAppendAck;
using protocol::ReplAppendRequest;
using protocol::ReplEntry;

void LogShipper::Activate(NodeId group, uint64_t epoch,
                          std::vector<NodeId> followers, size_t quorum_size,
                          uint64_t floor) {
  active_ = true;
  activation_++;
  ship_scheduled_ = false;
  sealed_first_ = 0;
  group_ = group;
  epoch_ = epoch;
  term_first_ = log_->last_index() + 1;
  quorum_size_ = quorum_size;
  commit_watermark_ = std::max(commit_watermark_, floor);
  followers_.clear();
  for (NodeId follower : followers) {
    // A fresh leader does not know how far each follower got; start from
    // its own log end and let failed acks walk next_index back.
    followers_[follower] = Progress{log_->last_index() + 1, 0};
  }
  // Degenerate group (or every peer lost): quorum may already be met for
  // the whole log.
  AdvanceWatermark();
}

void LogShipper::Deactivate() {
  active_ = false;
  activation_++;
  ship_scheduled_ = false;
  sealed_first_ = 0;
  pending_.clear();
}

uint64_t LogShipper::AppendAndShip(ReplEntry entry, QuorumCallback on_quorum) {
  const uint64_t index = Append(std::move(entry));
  if (on_quorum != nullptr) AddPending(index, std::move(on_quorum));
  // Coalesce: every entry appended in this event-loop tick (a group-commit
  // flush appends many) ships in ONE request per follower, acked as one.
  Ship();
  // The leader's own copy counts toward the quorum.
  AdvanceWatermark();
  return index;
}

uint64_t LogShipper::Append(ReplEntry entry) {
  GEOTP_CHECK(active_, "append on an inactive shipper");
  entry.epoch = epoch_;
  return log_->Append(std::move(entry));
}

void LogShipper::Ship() {
  if (ship_scheduled_) return;
  ship_scheduled_ = true;
  const uint64_t activation = activation_;
  timer_->Schedule(0, [this, activation]() {
    if (activation != activation_ || !active_) return;
    ship_scheduled_ = false;
    const uint64_t shippable = ShippableIndex();
    for (auto& [follower, progress] : followers_) {
      if (progress.next_index <= shippable) ShipTo(follower, progress);
    }
  });
}

uint64_t LogShipper::MinMatchIndex() const {
  uint64_t min_match = DurableIndex();
  for (const auto& [follower, progress] : followers_) {
    min_match = std::min(min_match, progress.match_index);
  }
  return min_match;
}

void LogShipper::AwaitQuorum(uint64_t index, QuorumCallback on_quorum) {
  if (index <= commit_watermark_) {
    stats_.quorum_callbacks_fired++;
    on_quorum();
    return;
  }
  AddPending(index, std::move(on_quorum));
}

void LogShipper::AddPending(uint64_t index, QuorumCallback on_quorum) {
  if (pending_.empty() || pending_.back().first <= index) {
    pending_.emplace_back(index, std::move(on_quorum));
    return;
  }
  // An older index (a retry awaiting an existing entry): after every
  // callback at or below it.
  const auto at = std::upper_bound(
      pending_.begin(), pending_.end(), index,
      [](uint64_t i, const auto& pending) { return i < pending.first; });
  pending_.emplace(at, index, std::move(on_quorum));
}

void LogShipper::ShipTo(NodeId follower, Progress& progress) {
  if (progress.next_index < log_->first_index()) {
    // The follower needs entries that were compacted away (its log was
    // lost entirely — compaction never outruns a follower that still has
    // one). Ship a store snapshot positioning it at the compaction
    // boundary; the retained tail follows as a normal append.
    GEOTP_CHECK(snapshot_sender_ != nullptr,
                "follower " << follower << " needs compacted entries and no "
                            << "snapshot sender is installed");
    stats_.snapshots_sent++;
    snapshot_sender_(follower);
    progress.next_index = log_->first_index();
  }
  const uint64_t last = ShippableIndex();
  auto req = std::make_unique<ReplAppendRequest>();
  req->from = self_;
  req->to = follower;
  req->group = group_;
  req->epoch = epoch_;
  req->prev_index = progress.next_index - 1;
  req->prev_epoch = log_->EpochAt(req->prev_index);
  req->commit_watermark = commit_watermark_;
  req->compact_floor = std::min(MinMatchIndex(), commit_watermark_);
  if (progress.next_index <= last) {
    // Every follower at this next index gets the same sealed bytes.
    const protocol::SealedPayload& sealed = Seal(progress.next_index, last);
    protocol::AttachSealed(sealed, req.get());
    stats_.entries_shipped += last - progress.next_index + 1;
    stats_.append_batches_shipped++;
    stats_.wan_bytes_raw += sealed.uncompressed_len;
    stats_.wan_bytes_wire += sealed.payload.size();
  }
  network_->Send(std::move(req));
  // Optimistically advance; a failed ack rewinds next_index.
  progress.next_index = last + 1;
  progress.shipped = true;
}

const protocol::SealedPayload& LogShipper::Seal(uint64_t first,
                                                uint64_t last) {
  if (sealed_first_ == first && sealed_last_ == last) return sealed_;
  const auto [begin, end] = log_->Range(first, last);
  packed_.clear();
  wire::Writer(&packed_).PutRange(begin, end);
  protocol::SealPayload(packed_, &sealed_);
  sealed_first_ = first;
  sealed_last_ = last;
  stats_.batches_sealed++;
  return sealed_;
}

void LogShipper::OnAck(NodeId follower, const ReplAppendAck& ack) {
  if (!active_ || ack.epoch != epoch_) return;
  auto it = followers_.find(follower);
  if (it == followers_.end()) return;
  stats_.acks_received++;
  Progress& progress = it->second;
  if (!ack.ok) {
    // Log gap at the follower: rewind and retransmit from its tail.
    progress.next_index = ack.ack_index + 1;
    stats_.retransmissions++;
    ShipTo(follower, progress);
    return;
  }
  progress.match_index = std::max(progress.match_index, ack.ack_index);
  progress.next_index = std::max(progress.next_index, ack.ack_index + 1);
  AdvanceWatermark();
}

void LogShipper::AdvanceWatermark() {
  // k-th largest replicated index across {leader} ∪ followers, where
  // k = quorum size: the highest index at least k members hold. The
  // leader holds its durable prefix.
  if (followers_.size() + 1 < quorum_size_) return;  // can never reach it
  const uint64_t leader_index = DurableIndex();
  const auto held_by_quorum = [&](uint64_t index) {
    size_t holders = leader_index >= index ? 1 : 0;
    for (const auto& [follower, progress] : followers_) {
      if (progress.match_index >= index) holders++;
    }
    return holders >= quorum_size_;
  };
  uint64_t quorum_index = held_by_quorum(leader_index) ? leader_index : 0;
  for (const auto& [follower, progress] : followers_) {
    if (progress.match_index > quorum_index &&
        held_by_quorum(progress.match_index)) {
      quorum_index = progress.match_index;
    }
  }
  if (quorum_index <= commit_watermark_) return;
  commit_watermark_ = quorum_index;
  if (on_commit_) on_commit_();

  // Fire callbacks for every index now at quorum, in log order.
  while (!pending_.empty() && pending_.front().first <= commit_watermark_) {
    QuorumCallback cb = std::move(pending_.front().second);
    pending_.pop_front();
    stats_.quorum_callbacks_fired++;
    cb();
  }
}

void LogShipper::Tick() {
  if (!active_) return;
  const uint64_t shippable = ShippableIndex();
  for (auto& [follower, progress] : followers_) {
    const bool lagging = progress.next_index <= shippable;
    // An append since the last tick already reset the follower's election
    // timer and carried the watermark: it counts as the heartbeat (Raft
    // §5.2). Never two skips in a row, so a follower hears the current
    // watermark at least every other tick.
    const bool skip = progress.shipped && !lagging && !progress.skipped;
    progress.skipped = skip;
    if (!skip) {
      if (lagging) {
        stats_.retransmissions++;
        progress.next_index =
            std::min(progress.next_index, progress.match_index + 1);
      }
      ShipTo(follower, progress);
    }
    progress.shipped = false;
  }
}

}  // namespace replication
}  // namespace geotp
