#include "storage/lock_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace storage {
namespace {

/// Released held lists kept for reuse: about the owners a data source
/// starts between two releases.
constexpr size_t kSpareHeldLists = 64;

}  // namespace

// ---------------------------------------------------------------------------
// HolderSet
// ---------------------------------------------------------------------------

LockManager::Holder* LockManager::HolderSet::Find(const Xid& owner) {
  if (!has_first_) return nullptr;
  if (first_.owner == owner) return &first_;
  for (Holder& holder : rest_) {
    if (holder.owner == owner) return &holder;
  }
  return nullptr;
}

void LockManager::HolderSet::Add(const Xid& owner, LockMode mode) {
  if (!has_first_) {
    first_ = Holder{owner, mode};
    has_first_ = true;
    return;
  }
  rest_.push_back(Holder{owner, mode});
}

void LockManager::HolderSet::Erase(const Xid& owner) {
  if (!has_first_) return;
  if (first_.owner == owner) {
    if (rest_.empty()) {
      has_first_ = false;
      return;
    }
    first_ = rest_.back();
    rest_.pop_back();
    return;
  }
  for (Holder& holder : rest_) {
    if (holder.owner == owner) {
      holder = rest_.back();
      rest_.pop_back();
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// WaitQueue
// ---------------------------------------------------------------------------

void LockManager::WaitQueue::push_back(Waiter waiter) {
  // A first park reserves room for a short queue in one allocation.
  if (items_.capacity() == 0) items_.reserve(4);
  items_.push_back(std::move(waiter));
}

void LockManager::WaitQueue::push_front(Waiter waiter) {
  items_.insert(begin(), std::move(waiter));
}

void LockManager::WaitQueue::pop_front() {
  ++head_;
  Compact();
}

void LockManager::WaitQueue::erase(iterator it) {
  items_.erase(it);
  Compact();
}

void LockManager::WaitQueue::Compact() {
  if (head_ == items_.size()) {
    items_.clear();
    head_ = 0;
  } else if (2 * head_ >= items_.size()) {
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
}

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

bool LockManager::TryLock(const Xid& owner, const RecordKey& key,
                          LockMode mode) {
  return TryGrant(owner, key, locks_.FindOrInsert(key), mode);
}

bool LockManager::TryGrant(const Xid& owner, const RecordKey& key,
                           LockState& state, LockMode mode) {
  if (Holder* holder = state.holders.Find(owner)) {
    // Re-entrant: already holds >= mode?
    if (holder->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      stats_.grants_immediate++;
      return true;
    }
    // Upgrade S -> X, immediate when the owner is the sole holder.
    if (state.holders.size() != 1) return false;
    holder->mode = LockMode::kExclusive;
    state.mode = LockMode::kExclusive;
    stats_.upgrades++;
    stats_.grants_immediate++;
    return true;
  }

  // New request: grant iff compatible with holders and nobody queues ahead.
  const bool compatible =
      state.holders.empty() || Compatible(state.mode, mode);
  if (!compatible || !state.queue.empty()) return false;
  state.holders.Add(owner, mode);
  if (state.holders.size() == 1 || mode == LockMode::kExclusive) {
    state.mode = state.holders.size() == 1 ? mode : LockMode::kShared;
  }
  NoteHeld(owner, key);
  stats_.grants_immediate++;
  return true;
}

LockRequestId LockManager::RequestLock(const Xid& owner, const RecordKey& key,
                                       LockMode mode, LockCallback callback) {
  LockState& state = locks_.FindOrInsert(key);
  if (TryGrant(owner, key, state, mode)) {
    callback(Status::OK());
    return kInvalidLockRequest;
  }

  // Must wait. A regular request queues at the back; an upgrade (the owner
  // already holds S) parks ahead of regular waiters. Both are
  // deadlock-checked: two shared holders upgrading concurrently is the
  // classic cycle.
  const bool is_upgrade = state.holders.Find(owner) != nullptr;
  std::unordered_set<RecordKey, RecordKeyHash> visited;
  if (WouldDeadlock(owner, key, /*depth=*/0, &visited)) {
    stats_.deadlocks++;
    callback(Status::Aborted("deadlock victim"));
    return kInvalidLockRequest;
  }
  const LockRequestId id = next_request_id_++;
  if (is_upgrade) {
    state.queue.push_front(
        Waiter{id, owner, LockMode::kExclusive, true, std::move(callback)});
  } else {
    state.queue.push_back(
        Waiter{id, owner, mode, false, std::move(callback)});
  }
  parked_.emplace(id, key);
  waiting_on_[owner] = key;
  return id;
}

bool LockManager::WouldDeadlock(
    const Xid& requester, const RecordKey& key, int depth,
    std::unordered_set<RecordKey, RecordKeyHash>* visited) const {
  if (depth > 64) return false;  // cap the search; miss rather than stall
  const LockState* state = locks_.Find(key);
  if (state == nullptr) return false;

  // Membership test (runs on every reach): a wait chain arriving at a key
  // the requester HOLDS closes a cycle — the blocker cannot proceed until
  // the requester releases, and the requester is about to wait on the
  // chain's origin. At depth 0 the requester is naturally a holder (lock
  // upgrade), which is not a cycle by itself.
  const bool requester_holds = state->holders.Find(requester) != nullptr;
  if (depth > 0 && requester_holds) return true;

  // Expansion (runs once per key): follow every blocker's wait edge. A
  // regular request queues behind holders and earlier waiters; an upgrade
  // jumps to the queue front, so at the root key only the holders block it.
  if (!visited->insert(key).second) return false;
  auto follow = [&](const Xid& blocker) {
    if (blocker == requester) return false;
    auto wait_it = waiting_on_.find(blocker);
    if (wait_it == waiting_on_.end()) return false;
    return WouldDeadlock(requester, wait_it->second, depth + 1, visited);
  };
  if (state->holders.Any(
          [&](const Holder& holder) { return follow(holder.owner); })) {
    return true;
  }
  if (!requester_holds) {
    for (const Waiter& waiter : state->queue) {
      if (follow(waiter.owner)) return true;
    }
  }
  return false;
}

void LockManager::CancelRequest(LockRequestId id, Status status) {
  auto it = parked_.find(id);
  if (it == parked_.end()) return;  // already granted or cancelled
  const RecordKey key = it->second;
  parked_.erase(it);

  LockState* state = locks_.Find(key);
  GEOTP_CHECK(state != nullptr, "parked request on unknown key");
  for (auto qit = state->queue.begin(); qit != state->queue.end(); ++qit) {
    if (qit->id == id) {
      LockCallback cb = std::move(qit->callback);
      waiting_on_.erase(qit->owner);
      state->queue.erase(qit);
      stats_.cancellations++;
      // Removing a waiter may unblock the queue head (e.g. an X waiter
      // blocking compatible S requests behind it).
      std::vector<LockCallback> to_fire;
      ProcessQueue(key, *state, to_fire);
      if (state->holders.empty() && state->queue.empty()) locks_.Erase(key);
      cb(status);
      for (auto& fire : to_fire) fire(Status::OK());
      return;
    }
  }
  GEOTP_CHECK(false, "parked request not found in queue");
}

void LockManager::NoteHeld(const Xid& owner, const RecordKey& key) {
  auto it = held_by_owner_.find(owner);
  if (it == held_by_owner_.end()) {
    if (spare_held_.empty()) {
      it = held_by_owner_.try_emplace(owner).first;
    } else {
      HeldKeys::node_type node = std::move(spare_held_.back());
      spare_held_.pop_back();
      node.key() = owner;
      it = held_by_owner_.insert(std::move(node)).position;
    }
  }
  it->second.push_back(key);
}

void LockManager::ReleaseAll(const Xid& owner) {
  auto owner_it = held_by_owner_.find(owner);
  if (owner_it == held_by_owner_.end()) return;
  // Detach the owner's list: the grants below add other owners' keys to
  // held_by_owner_, which may rehash it.
  HeldKeys::node_type held = held_by_owner_.extract(owner_it);
  std::vector<LockCallback> to_fire;
  for (const RecordKey& key : held.mapped()) {
    LockState* state = locks_.Find(key);
    if (state == nullptr) continue;
    state->holders.Erase(owner);
    ProcessQueue(key, *state, to_fire);
    if (state->holders.empty() && state->queue.empty()) locks_.Erase(key);
  }
  if (spare_held_.size() < kSpareHeldLists) {
    held.mapped().clear();
    spare_held_.push_back(std::move(held));
  }
  for (auto& fire : to_fire) fire(Status::OK());
}

void LockManager::ProcessQueue(const RecordKey& key, LockState& state,
                               std::vector<LockCallback>& to_fire) {
  while (!state.queue.empty()) {
    Waiter& head = state.queue.front();
    if (head.is_upgrade) {
      // Upgrade fires only when its owner is the sole holder.
      Holder* holder = state.holders.Find(head.owner);
      if (holder == nullptr || state.holders.size() != 1) return;
      holder->mode = LockMode::kExclusive;
      state.mode = LockMode::kExclusive;
      stats_.upgrades++;
    } else {
      const bool can_grant =
          state.holders.empty() ||
          (state.mode == LockMode::kShared && head.mode == LockMode::kShared);
      if (!can_grant) return;
      state.holders.Add(head.owner, head.mode);
      state.mode = head.mode;
      NoteHeld(head.owner, key);
    }
    stats_.grants_after_wait++;
    parked_.erase(head.id);
    waiting_on_.erase(head.owner);
    to_fire.push_back(std::move(head.callback));
    state.queue.pop_front();
    // An exclusive grant saturates the lock: nothing else can follow.
    if (state.mode == LockMode::kExclusive) return;
  }
}

bool LockManager::Holds(const Xid& owner, const RecordKey& key,
                        LockMode mode) const {
  const LockState* state = locks_.Find(key);
  if (state == nullptr) return false;
  const Holder* holder = state->holders.Find(owner);
  if (holder == nullptr) return false;
  return holder->mode == LockMode::kExclusive || mode == LockMode::kShared;
}

size_t LockManager::WaitersOn(const RecordKey& key) const {
  const LockState* state = locks_.Find(key);
  return state == nullptr ? 0 : state->queue.size();
}

size_t LockManager::HoldersOn(const RecordKey& key) const {
  const LockState* state = locks_.Find(key);
  return state == nullptr ? 0 : state->holders.size();
}

}  // namespace storage
}  // namespace geotp
