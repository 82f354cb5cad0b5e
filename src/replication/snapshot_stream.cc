#include "replication/snapshot_stream.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/wire.h"
#include "datasource/data_source.h"
#include "protocol/wan_codec.h"

namespace geotp {
namespace replication {

using protocol::ReplWrite;
using protocol::ShardSnapshotAck;
using protocol::ShardSnapshotChunk;

SnapshotSender::SnapshotSender(datasource::DataSourceNode* node,
                               ShardSnapshotChunk header,
                               std::function<bool(const RecordKey&)> in_scope,
                               SnapshotStreamStats* stats)
    : node_(node),
      header_(std::move(header)),
      in_scope_(std::move(in_scope)),
      stats_(stats) {}

SnapshotSender::~SnapshotSender() {
  if (resend_timer_ != runtime::kInvalidTimer) {
    node_->timer()->Cancel(resend_timer_);
  }
}

void SnapshotSender::Pump() {
  if (complete_ || last_seq_ != 0 || next_seq_ > acked_ + credit_) return;
  const uint64_t chunk_cap =
      std::max<uint64_t>(1, node_->config().migration_chunk_records);
  // One committed-records scan per pump, sliced into as many chunks as the
  // credit allows (a scan per chunk would be quadratic in resident
  // records). Values are read at cut time; what commits behind the cursor
  // reaches the receiver through the owner (deltas, or the log tail).
  std::vector<ReplWrite> remainder;
  for (const auto& [key, value] :
       node_->engine().CommittedRecords([this](const RecordKey& key) {
         return !(key < cursor_) && (!in_scope_ || in_scope_(key));
       })) {
    remainder.push_back(ReplWrite{key, value});
  }
  const auto by_key = [](const ReplWrite& a, const ReplWrite& b) {
    return a.key < b.key;
  };
  // Only the credit's worth of smallest keys needs ordering; the extra
  // element becomes the next cursor.
  const size_t total = remainder.size();
  const size_t need = (acked_ + credit_ - next_seq_ + 1) * chunk_cap + 1;
  if (total > need) {
    std::nth_element(remainder.begin(),
                     remainder.begin() + static_cast<ptrdiff_t>(need) - 1,
                     remainder.end(), by_key);
    remainder.resize(need);
  }
  std::sort(remainder.begin(), remainder.end(), by_key);
  size_t offset = 0;
  while (last_seq_ == 0 && next_seq_ <= acked_ + credit_) {
    const bool last = total - offset <= chunk_cap;
    const size_t end = last ? total : offset + chunk_cap;
    const uint64_t seq = next_seq_++;
    ShardSnapshotChunk& chunk = unacked_.emplace(seq, header_).first->second;
    chunk.seq = seq;
    chunk.last = last;
    packed_.clear();
    wire::Writer(&packed_).PutRange(
        remainder.begin() + static_cast<ptrdiff_t>(offset),
        remainder.begin() + static_cast<ptrdiff_t>(end));
    protocol::SealChunkPayload(packed_, &chunk);
    stats_->chunks_sealed++;
    stats_->snapshot_chunks_sent++;
    stats_->snapshot_records_sent += end - offset;
    stats_->peak_unacked_chunks =
        std::max<uint64_t>(stats_->peak_unacked_chunks, unacked_.size());
    Send(chunk);
    if (obs::GlobalTracer().enabled()) {
      spans_[seq] = obs::GlobalTracer().BeginSpan(
          obs::SystemContext(), "snapshot.chunk", node_->id(),
          node_->timer()->Now());
    }
    if (last) last_seq_ = seq;
    offset = end;
    if (!last) cursor_ = remainder[offset].key;
  }
  last_progress_at_ = node_->timer()->Now();
  ArmResendTimer();
}

void SnapshotSender::Send(const ShardSnapshotChunk& chunk) {
  stats_->wan_bytes_raw += chunk.payload_uncompressed_len;
  stats_->wan_bytes_wire += chunk.payload.size();
  node_->transport()->Send(std::make_unique<ShardSnapshotChunk>(chunk));
}

void SnapshotSender::ResendUnacked() {
  for (const auto& [seq, chunk] : unacked_) {
    stats_->chunk_retransmits++;
    Send(chunk);
  }
  last_progress_at_ = node_->timer()->Now();
}

void SnapshotSender::Redirect(NodeId to) {
  header_.to = to;
  for (auto& [seq, chunk] : unacked_) chunk.to = to;
  ResendUnacked();
}

void SnapshotSender::ArmResendTimer() {
  if (resend_timer_ != runtime::kInvalidTimer) return;
  const Micros timeout = node_->config().migration_resend_timeout;
  resend_timer_ = node_->timer()->Schedule(timeout, [this, timeout]() {
    resend_timer_ = runtime::kInvalidTimer;
    if (node_->crashed() || complete_ || unacked_.empty()) return;
    // No progress in a full timeout: chunks or their acks were lost. The
    // receiver re-acks what it already has, so a lost ack recovers too.
    if (node_->timer()->Now() - last_progress_at_ >= timeout) ResendUnacked();
    ArmResendTimer();
  });
}

bool SnapshotSender::OnAck(const ShardSnapshotAck& ack) {
  if (complete_ || ack.epoch != header_.epoch ||
      ack.base_index != header_.base_index) {
    return false;
  }
  // Take the grant only from acks at (or past) the current position: a
  // reordered older ack can grant more than the receiver has room for.
  if (ack.seq >= acked_) credit_ = std::max<uint64_t>(1, ack.credit);
  if (ack.seq > acked_) {
    acked_ = ack.seq;
    unacked_.erase(unacked_.begin(), unacked_.upper_bound(acked_));
    for (; !spans_.empty() && spans_.begin()->first <= acked_;
         spans_.erase(spans_.begin())) {
      obs::GlobalTracer().EndSpan(spans_.begin()->second,
                                  node_->timer()->Now());
    }
    last_progress_at_ = node_->timer()->Now();
  }
  if (last_seq_ != 0 && acked_ >= last_seq_) {
    complete_ = true;
    stats_->streams_completed++;
    return true;
  }
  Pump();
  return false;
}

SnapshotReceiver::SnapshotReceiver(uint64_t window)
    : window_(std::max<uint64_t>(1, window)) {}

bool SnapshotReceiver::Offer(uint64_t seq, bool last,
                             std::vector<ReplWrite> records,
                             SnapshotStreamStats* stats) {
  if (seq <= applied_) return false;
  if (buffered_.count(seq) == 0 && buffered_.size() >= window_) return true;
  buffered_[seq] = std::move(records);
  if (last) last_seq_ = seq;
  if (stats != nullptr) {
    stats->peak_buffered_chunks =
        std::max<uint64_t>(stats->peak_buffered_chunks, buffered_.size());
  }
  return true;
}

bool SnapshotReceiver::Next(uint64_t* seq, std::vector<ReplWrite>* records) {
  // A chunk re-buffered while it was being applied is stale now; left in
  // place it would pin a window slot and shrink every grant.
  while (!buffered_.empty() && buffered_.begin()->first <= applied_) {
    buffered_.erase(buffered_.begin());
  }
  if (buffered_.empty() || buffered_.begin()->first != applied_ + 1) {
    return false;
  }
  *seq = buffered_.begin()->first;
  *records = std::move(buffered_.begin()->second);
  buffered_.erase(buffered_.begin());
  return true;
}

void SnapshotReceiver::FillAck(ShardSnapshotAck* ack) const {
  ack->seq = applied_;
  // Never a zero grant: it rides on an apply ack, so a slot just freed.
  ack->credit = window_ > buffered_.size() ? window_ - buffered_.size() : 1;
}

}  // namespace replication
}  // namespace geotp
