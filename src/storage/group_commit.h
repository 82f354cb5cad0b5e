// GroupCommitter: fsync batching for the durability hot path.
//
// Real engines do not pay one fsync per transaction: concurrent commits
// join an open batch and a single flush of the log device makes the whole
// batch durable (InnoDB group commit, PostgreSQL commit_delay). This class
// models that pipeline on the simulated event loop:
//
//   * Append(cost, on_durable) joins the open batch. The batch's flush is
//     scheduled when the batch opens — after `max_batch_delay` (0 still
//     coalesces every append from the same event-loop tick) — or starts
//     early once `max_batch_size` entries joined.
//   * The log device is serial: while a flush is in flight, new appends
//     accumulate into the next batch, which starts when the device frees.
//   * Every waiter is acked (its `on_durable` runs) only at flush
//     completion; the flush duration is the max of the batch's per-entry
//     costs, so a batch of one behaves exactly like an unbatched fsync.
//   * Waiters run in append order: an entry is durable only once every
//     entry appended before it is. Callers rely on this: a data
//     source releases a committing branch's locks as its COMMIT record is
//     appended, so a transaction that took those locks appends its own
//     record later and cannot be acked before the commit it read.
//   * Reset() models a crash: the open batch and any in-flight flush are
//     lost — no waiter ever fires, mirroring WAL entries that were
//     buffered but never reached the disk.
//   * An entry may carry an opaque tag (a replicated source: the index of
//     the record's log entry). The flush-start hook sees each tag as its
//     batch goes to the device, and the oldest tag not yet started or not
//     yet durable is queryable: the committer owns what is unflushed.
//
// `max_batch_size = 1` gives every entry its own fsync on the same serial
// device: the unbatched baseline the benchmarks compare against.
#ifndef GEOTP_STORAGE_GROUP_COMMIT_H_
#define GEOTP_STORAGE_GROUP_COMMIT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace geotp {
namespace storage {

/// What one log record holds (the committer's `payload`, written with
/// `wire::Pack`): a data source's PREPARE or COMMIT of a branch, or a
/// DM's decision for a transaction (its xid names no data source). Its
/// 13 bytes fit a string's inline buffer, so a record allocates nothing.
enum class LogRecordType : uint8_t { kPrepare, kCommit, kAbort };
constexpr LogRecordType WireMax(LogRecordType) {
  return LogRecordType::kAbort;
}
struct LogRecord {
  LogRecordType type = LogRecordType::kPrepare;
  Xid xid;
  GEOTP_WIRE_FIELDS(type, xid)
};

struct GroupCommitConfig {
  /// How long an open batch waits for co-travellers before flushing.
  /// 0 still merges every append from the same event-loop tick.
  Micros max_batch_delay = 0;
  /// A batch this full flushes immediately (1: no group commit).
  size_t max_batch_size = 64;
};

struct GroupCommitStats {
  uint64_t fsyncs = 0;          ///< flushes completed
  uint64_t entries = 0;         ///< entries made durable
  uint64_t max_batch_entries = 0;
  uint64_t busy_us = 0;    ///< device time of the completed flushes
  /// Summed wait of every entry from Append until its flush started.
  uint64_t queued_us = 0;
  GEOTP_STAT_FIELDS(fsyncs, entries, HighWater(max_batch_entries), busy_us,
                    queued_us)
};

class GroupCommitter {
 public:
  using DurableCallback = std::function<void()>;

  /// Flushes go to `device` (not owned; must outlive the committer). The
  /// timer only drives batching delays — the device decides how long a
  /// flush takes (simulated cost or a real fsync).
  GroupCommitter(runtime::ITimer* timer, runtime::IStableStorage* device,
                 GroupCommitConfig config)
      : timer_(timer), device_(device), config_(config) {}

  /// Joins the open batch. `fsync_cost` is this entry's device time if it
  /// flushed alone; the shared flush charges the max across the batch.
  /// `payload` is the entry's durable bytes (written to the device as part
  /// of the shared flush). `on_durable` runs when that flush completes,
  /// never earlier. `tag` is opaque to the committer (0: none).
  void Append(Micros fsync_cost, std::string payload,
              DurableCallback on_durable, uint64_t tag = 0);
  void Append(Micros fsync_cost, DurableCallback on_durable) {
    Append(fsync_cost, std::string(), std::move(on_durable));
  }

  /// Crash: drops the open batch and the in-flight flush without running
  /// any waiter. Durable (already-flushed) entries are unaffected.
  void Reset();

  /// Hook run once per completed flush, after its entries' waiters.
  void set_on_fsync(std::function<void()> hook) { on_fsync_ = std::move(hook); }
  /// Hook run with each entry's tag as its batch goes to the device,
  /// before the flush, in append order; never for an entry Reset() dropped.
  void set_on_flush_start(std::function<void(uint64_t tag)> hook) {
    on_flush_start_ = std::move(hook);
  }

  /// Smallest nonzero tag among the entries not yet durable (0: none).
  uint64_t OldestPendingTag() const;
  /// Smallest nonzero tag among the entries whose flush has not started.
  uint64_t OldestUnstartedTag() const;

  const GroupCommitStats& stats() const { return stats_; }
  const GroupCommitConfig& config() const { return config_; }
  size_t pending() const { return open_.size() + in_flight_.size(); }

 private:
  struct Entry {
    Micros cost;
    std::string payload;
    uint64_t tag;
    Micros appended_at;
    DurableCallback on_durable;
  };

  void StartFlush();
  void FinishFlush(uint64_t generation, Micros started_at);

  runtime::ITimer* timer_;
  runtime::IStableStorage* device_;
  GroupCommitConfig config_;
  std::function<void()> on_fsync_;
  std::function<void(uint64_t)> on_flush_start_;
  std::vector<Entry> open_;       ///< batch accepting new entries
  std::vector<Entry> in_flight_;  ///< batch whose flush is on the device
  bool flushing_ = false;
  runtime::TimerId open_timer_ = runtime::kInvalidTimer;
  /// Bumped by Reset() so stale scheduled events become no-ops.
  uint64_t generation_ = 0;
  GroupCommitStats stats_;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_GROUP_COMMIT_H_
