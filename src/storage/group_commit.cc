#include "storage/group_commit.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace geotp {
namespace storage {
namespace {

/// The older of two tags, 0 meaning none.
uint64_t Older(uint64_t a, uint64_t b) {
  return a == 0 || (b != 0 && b < a) ? b : a;
}

}  // namespace

void GroupCommitter::Append(Micros fsync_cost, std::string payload,
                            DurableCallback on_durable, uint64_t tag) {
  open_.push_back(Entry{fsync_cost, std::move(payload), tag, timer_->Now(),
                        std::move(on_durable)});
  if (flushing_) return;  // joins the next batch when the device frees
  if (open_.size() >= config_.max_batch_size) {
    if (open_timer_ != runtime::kInvalidTimer) {
      timer_->Cancel(open_timer_);
      open_timer_ = runtime::kInvalidTimer;
    }
    StartFlush();
    return;
  }
  if (open_timer_ != runtime::kInvalidTimer) return;  // batch already open
  const uint64_t generation = generation_;
  open_timer_ = timer_->Schedule(config_.max_batch_delay,
                                 [this, generation]() {
                                   if (generation != generation_) return;
                                   open_timer_ = runtime::kInvalidTimer;
                                   if (!flushing_) StartFlush();
                                 });
}

void GroupCommitter::StartFlush() {
  if (open_.empty()) return;
  flushing_ = true;
  if (open_.size() <= config_.max_batch_size) {
    in_flight_ = std::move(open_);
    open_.clear();
  } else {
    // A backlog wider than one batch (accumulated while the device was
    // busy) drains max_batch_size entries per flush.
    in_flight_.assign(
        std::make_move_iterator(open_.begin()),
        std::make_move_iterator(open_.begin() +
                                static_cast<ptrdiff_t>(config_.max_batch_size)));
    open_.erase(open_.begin(),
                open_.begin() + static_cast<ptrdiff_t>(config_.max_batch_size));
  }
  const Micros now = timer_->Now();
  const uint64_t generation = generation_;
  Micros cost = 0;
  std::string batch;
  for (const Entry& entry : in_flight_) {
    cost = std::max(cost, entry.cost);
    batch += entry.payload;
    stats_.queued_us += static_cast<uint64_t>(now - entry.appended_at);
    if (on_flush_start_) on_flush_start_(entry.tag);
  }
  device_->Flush(std::move(batch), cost, [this, generation, now]() {
    FinishFlush(generation, now);
  });
}

void GroupCommitter::FinishFlush(uint64_t generation, Micros started_at) {
  if (generation != generation_) return;  // crashed while on the device
  stats_.fsyncs++;
  stats_.entries += in_flight_.size();
  stats_.max_batch_entries =
      std::max<uint64_t>(stats_.max_batch_entries, in_flight_.size());
  stats_.busy_us += static_cast<uint64_t>(timer_->Now() - started_at);
  // Waiters may append again from their callbacks; detach the batch first.
  std::vector<Entry> done = std::move(in_flight_);
  in_flight_.clear();
  flushing_ = false;
  for (Entry& entry : done) entry.on_durable();
  if (on_fsync_) on_fsync_();
  // Entries that arrived while the device was busy have waited long
  // enough: flush them immediately, ignoring max_batch_delay.
  if (!flushing_ && !open_.empty()) {
    if (open_timer_ != runtime::kInvalidTimer) {
      timer_->Cancel(open_timer_);
      open_timer_ = runtime::kInvalidTimer;
    }
    StartFlush();
  }
}

void GroupCommitter::Reset() {
  generation_++;
  if (open_timer_ != runtime::kInvalidTimer) {
    timer_->Cancel(open_timer_);
    open_timer_ = runtime::kInvalidTimer;
  }
  open_.clear();
  in_flight_.clear();
  flushing_ = false;
}

uint64_t GroupCommitter::OldestPendingTag() const {
  uint64_t oldest = OldestUnstartedTag();
  for (const Entry& entry : in_flight_) oldest = Older(oldest, entry.tag);
  return oldest;
}

uint64_t GroupCommitter::OldestUnstartedTag() const {
  uint64_t oldest = 0;
  for (const Entry& entry : open_) oldest = Older(oldest, entry.tag);
  return oldest;
}

}  // namespace storage
}  // namespace geotp
