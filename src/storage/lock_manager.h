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
// timeout on the event loop. TryLock() is the callback-free fast path: a
// caller tries it first and builds a callback only for a request that
// must park.
//
// Lock state lives inline in a KeyTable slot: the first holder inline, any
// further (shared) holders and the waiters in vectors. A grant therefore
// allocates nothing in the table; only a parked request does.
#ifndef GEOTP_STORAGE_LOCK_MANAGER_H_
#define GEOTP_STORAGE_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/key_table.h"

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

  /// The synchronous half of RequestLock(): grants and returns true iff
  /// RequestLock() would grant at once (re-entrant, immediate upgrade or
  /// compatible with an empty queue), counting the same stats. Otherwise
  /// changes nothing and returns false; the caller then calls
  /// RequestLock(), which parks the request or refuses it as a deadlock
  /// victim.
  bool TryLock(const Xid& owner, const RecordKey& key, LockMode mode);

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

  /// Keys with a holder or a waiter, and owners holding at least one lock:
  /// both return to 0 once every owner released and every parked request
  /// was granted or cancelled (the table's memory is bounded by live
  /// locks).
  size_t locked_keys() const { return locks_.size(); }
  size_t owners() const { return held_by_owner_.size(); }

 private:
  struct Holder {
    Xid owner;
    LockMode mode = LockMode::kShared;
  };

  /// The holders of one key. A lone holder — the common case — sits inline;
  /// further shared holders spill into `rest_`. Order is unspecified.
  class HolderSet {
   public:
    size_t size() const { return has_first_ ? 1 + rest_.size() : 0; }
    bool empty() const { return !has_first_; }
    Holder* Find(const Xid& owner);
    const Holder* Find(const Xid& owner) const {
      return const_cast<HolderSet*>(this)->Find(owner);
    }
    void Add(const Xid& owner, LockMode mode);
    void Erase(const Xid& owner);
    /// True if pred(holder) holds for some holder.
    template <typename Pred>
    bool Any(Pred&& pred) const {
      if (!has_first_) return false;
      if (pred(first_)) return true;
      for (const Holder& holder : rest_) {
        if (pred(holder)) return true;
      }
      return false;
    }

   private:
    bool has_first_ = false;
    Holder first_;
    std::vector<Holder> rest_;
  };

  struct Waiter {
    LockRequestId id;
    Xid owner;
    LockMode mode;
    bool is_upgrade;
    LockCallback callback;
  };

  /// The parked requests of one key, front = next to grant. A vector with
  /// a consumed prefix: granting the front is O(1), and the prefix is
  /// dropped once it outgrows the live part (or the queue drains).
  class WaitQueue {
   public:
    using iterator = std::vector<Waiter>::iterator;
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }
    iterator begin() {
      return items_.begin() + static_cast<ptrdiff_t>(head_);
    }
    iterator end() { return items_.end(); }
    const Waiter* begin() const { return items_.data() + head_; }
    const Waiter* end() const { return items_.data() + items_.size(); }
    Waiter& front() { return items_[head_]; }

    void push_back(Waiter waiter);
    /// Upgrades jump the queue.
    void push_front(Waiter waiter);
    void pop_front();
    void erase(iterator it);

   private:
    /// Drops the consumed prefix when it is all of the vector or at least
    /// half of it.
    void Compact();

    std::vector<Waiter> items_;
    size_t head_ = 0;
  };

  struct LockState {
    LockMode mode = LockMode::kShared;       // meaningful iff !holders.empty()
    HolderSet holders;
    WaitQueue queue;
  };

  /// TryLock() on an already looked-up state.
  bool TryGrant(const Xid& owner, const RecordKey& key, LockState& state,
                LockMode mode);

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

  KeyTable<LockState> locks_;
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
