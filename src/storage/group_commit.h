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
//   * Reset() models a crash: the open batch and any in-flight flush are
//     lost — no waiter ever fires, mirroring WAL entries that were
//     buffered but never reached the disk.
//
// With `enabled = false` every Append schedules its own independent fsync
// (the pre-group-commit cost model), which the benchmarks use as the
// unbatched baseline.
#ifndef GEOTP_STORAGE_GROUP_COMMIT_H_
#define GEOTP_STORAGE_GROUP_COMMIT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace geotp {
namespace storage {

struct GroupCommitConfig {
  /// false: one independent fsync per entry (legacy per-txn schedule).
  bool enabled = true;
  /// How long an open batch waits for co-travellers before flushing.
  /// 0 still merges every append from the same event-loop tick.
  Micros max_batch_delay = 0;
  /// A batch this full flushes immediately.
  size_t max_batch_size = 64;
};

struct GroupCommitStats {
  uint64_t fsyncs = 0;          ///< flushes completed
  uint64_t entries = 0;         ///< entries made durable
  uint64_t max_batch_entries = 0;
  GEOTP_STAT_FIELDS(fsyncs, entries, HighWater(max_batch_entries))
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

  /// Convenience for simulated deployments: the device is an owned
  /// SimStableStorage charging each flush's cost on `timer`.
  GroupCommitter(runtime::ITimer* timer, GroupCommitConfig config)
      : timer_(timer),
        owned_device_(std::make_unique<runtime::SimStableStorage>(timer)),
        config_(config) {
    device_ = owned_device_.get();
  }

  /// Joins the open batch. `fsync_cost` is this entry's device time if it
  /// flushed alone; the shared flush charges the max across the batch.
  /// `payload` is the entry's durable bytes (written to the device as part
  /// of the shared flush). `on_durable` runs when that flush completes,
  /// never earlier.
  void Append(Micros fsync_cost, std::string payload,
              DurableCallback on_durable);
  void Append(Micros fsync_cost, DurableCallback on_durable) {
    Append(fsync_cost, std::string(), std::move(on_durable));
  }

  /// Crash: drops the open batch and the in-flight flush without running
  /// any waiter. Durable (already-flushed) entries are unaffected.
  void Reset();

  /// Hook run once per completed flush (WAL fsync accounting).
  void set_on_fsync(std::function<void()> hook) { on_fsync_ = std::move(hook); }

  const GroupCommitStats& stats() const { return stats_; }
  const GroupCommitConfig& config() const { return config_; }
  size_t pending() const { return open_.size() + in_flight_.size(); }

 private:
  struct Entry {
    Micros cost;
    std::string payload;
    DurableCallback on_durable;
  };

  void StartFlush();
  void FinishFlush(uint64_t generation);

  runtime::ITimer* timer_;
  runtime::IStableStorage* device_ = nullptr;
  std::unique_ptr<runtime::IStableStorage> owned_device_;
  GroupCommitConfig config_;
  std::function<void()> on_fsync_;
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
