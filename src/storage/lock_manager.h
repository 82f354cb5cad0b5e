// Strict two-phase-locking lock manager with shared/exclusive record locks.
//
// This models the concurrency control of the underlying data sources
// (MySQL/PostgreSQL at serializable isolation, paper §I footnote). Grants
// are FIFO: a request waits if it is incompatible with current holders or
// if any earlier waiter exists (no barging), matching InnoDB's behaviour
// closely enough for contention-span arithmetic.
//
// The manager is asynchronous: RequestLock() either grants synchronously
// (invoking the callback before returning) or parks the request. Waiters
// are woken by ReleaseAll(). Timeouts are driven from outside via
// CancelRequest() — the data-source node schedules the 5 s lock-wait
// timeout on the event loop.
#ifndef GEOTP_STORAGE_LOCK_MANAGER_H_
#define GEOTP_STORAGE_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace geotp {
namespace storage {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// Result passed to the request callback on grant/cancel.
using LockCallback = std::function<void(Status)>;

/// Handle for cancelling a parked request.
using LockRequestId = uint64_t;
constexpr LockRequestId kInvalidLockRequest = 0;

struct LockStats {
  uint64_t grants_immediate = 0;
  uint64_t grants_after_wait = 0;
  uint64_t cancellations = 0;
  uint64_t upgrades = 0;
  uint64_t deadlocks = 0;
  GEOTP_STAT_FIELDS(grants_immediate, grants_after_wait, cancellations,
                    upgrades, deadlocks)
};

class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `key` for transaction `owner`.
  ///
  /// * If the owner already holds a lock of equal or stronger mode, the
  ///   callback fires immediately with OK (re-entrant).
  /// * If the owner holds kShared and requests kExclusive, this is an
  ///   upgrade: it is granted when the owner is the sole holder, and queues
  ///   ahead of regular waiters otherwise.
  /// * Returns kInvalidLockRequest when the callback already fired
  ///   (synchronous grant), else an id usable with CancelRequest().
  ///
  /// Deadlock detection (InnoDB-style wait-for graph): if parking this
  /// request would close a wait cycle, the request is refused instead —
  /// the callback fires synchronously with kAborted("deadlock") and the
  /// requester is the victim.
  LockRequestId RequestLock(const Xid& owner, const RecordKey& key,
                            LockMode mode, LockCallback callback);

  /// Cancels a parked request (lock-wait timeout or early abort). The
  /// callback fires with the given status. No-op if already granted.
  void CancelRequest(LockRequestId id, Status status);

  /// Releases every lock held by `owner` and wakes eligible waiters.
  /// Wake callbacks run synchronously inside this call.
  void ReleaseAll(const Xid& owner);

  /// True if `owner` currently holds a lock on `key` of at least `mode`.
  bool Holds(const Xid& owner, const RecordKey& key, LockMode mode) const;

  /// Number of transactions currently waiting on `key` (hotspot signal).
  size_t WaitersOn(const RecordKey& key) const;
  /// Number of transactions currently holding a lock on `key`.
  size_t HoldersOn(const RecordKey& key) const;

  const LockStats& stats() const { return stats_; }

  /// Total parked requests across all keys.
  size_t total_waiters() const { return parked_.size(); }

 private:
  struct Waiter {
    LockRequestId id;
    Xid owner;
    LockMode mode;
    bool is_upgrade;
    LockCallback callback;
  };

  struct LockState {
    LockMode mode = LockMode::kShared;       // meaningful iff !holders.empty()
    std::unordered_map<Xid, LockMode, XidHash> holders;
    std::deque<Waiter> queue;
  };

  /// Grants as many queued waiters as compatibility allows (FIFO).
  void ProcessQueue(const RecordKey& key, LockState& state,
                    std::vector<LockCallback>& to_fire);

  /// DFS over the wait-for graph: would `requester` waiting on `key` close
  /// a cycle back to itself? Visited-set pruned so hot keys with long wait
  /// queues stay linear; conservative (treats every queued waiter and
  /// every holder as blocking).
  bool WouldDeadlock(
      const Xid& requester, const RecordKey& key, int depth,
      std::unordered_set<RecordKey, RecordKeyHash>* visited) const;

  static bool Compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  std::unordered_map<RecordKey, LockState, RecordKeyHash> locks_;
  // Reverse index: parked request id -> key (for cancellation).
  std::unordered_map<LockRequestId, RecordKey> parked_;
  // Which key each transaction currently waits on (wait-for graph edges).
  std::unordered_map<Xid, RecordKey, XidHash> waiting_on_;
  // Held keys per owner, for ReleaseAll.
  std::unordered_map<Xid, std::unordered_set<RecordKey, RecordKeyHash>,
                     XidHash>
      held_by_owner_;
  LockRequestId next_request_id_ = 1;
  LockStats stats_;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_LOCK_MANAGER_H_
