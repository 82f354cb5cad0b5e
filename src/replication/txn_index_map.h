// TxnIndexMap: transaction id -> replication log index, in one flat array,
// and UnresolvedPrepares, the replicator's prepare tracking built on it.
//
// The replicator keeps two such maps per replica: the unresolved prepare
// entries and the commit entry of every transaction (kept for idempotent
// decision retries, so it grows with the log). As node-based hash maps
// they cost an allocation per insert and a pointer chase per lookup, on
// every replica, for every transaction. Here a slot is the pair itself:
// open addressing, power-of-two capacity, linear probing, at most three
// quarters full, backward-shift erase (no tombstones). Log indexes start
// at 1, so index 0 marks an empty slot and every TxnId stays usable.
//
// Iteration order is the slot order, i.e. unspecified; every caller folds
// it into an order-independent result (a minimum, a sorted list, a set).
#ifndef GEOTP_REPLICATION_TXN_INDEX_MAP_H_
#define GEOTP_REPLICATION_TXN_INDEX_MAP_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace geotp {
namespace replication {

class TxnIndexMap {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The index stored for `txn`, or 0 when there is none.
  uint64_t Get(TxnId txn) const {
    return slots_.empty() ? 0 : slots_[Probe(txn)].index;
  }

  /// Stores `index` (>= 1) for `txn`, replacing any earlier one.
  void Put(TxnId txn, uint64_t index) {
    GEOTP_CHECK(index != 0, "log indexes start at 1");
    if (4 * (size_ + 1) > 3 * slots_.size()) Grow();
    Slot& slot = slots_[Probe(txn)];
    if (slot.index == 0) ++size_;
    slot = Slot{txn, index};
  }

  /// Removes `txn`; false if it was absent.
  bool Erase(TxnId txn) {
    if (slots_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    size_t hole = Probe(txn);
    if (slots_[hole].index == 0) return false;
    // Pull each later slot of the probe run into the hole unless that
    // would move it before its home position.
    for (size_t i = (hole + 1) & mask; slots_[i].index != 0;
         i = (i + 1) & mask) {
      const size_t home = Home(slots_[i].txn);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot();
    --size_;
    return true;
  }

  /// Removes every pair whose index is >= `from`.
  void EraseFrom(uint64_t from) {
    std::vector<TxnId> doomed;
    ForEach([&](TxnId txn, uint64_t index) {
      if (index >= from) doomed.push_back(txn);
    });
    for (TxnId txn : doomed) Erase(txn);
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// Calls fn(txn, index) once per pair, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.index != 0) fn(slot.txn, slot.index);
    }
  }

 private:
  struct Slot {
    TxnId txn = 0;
    uint64_t index = 0;  ///< 0: empty
  };

  size_t Home(TxnId txn) const {
    // Fibonacci hashing: transaction ids are dense, so spread them.
    return static_cast<size_t>((txn * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The slot holding `txn`, or the empty slot ending its probe run.
  size_t Probe(TxnId txn) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(txn);
    while (slots_[i].index != 0 && slots_[i].txn != txn) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, Slot());
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& slot : old) {
      if (slot.index != 0) slots_[Probe(slot.txn)] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity)
};

/// The prepare entries without a later commit or abort entry, by
/// transaction, plus the oldest of them: it pins log compaction, and a
/// follower asks after every append. Prepares are appended at the log end,
/// so a queue in index order holds them; a resolved one leaves the queue
/// lazily once it reaches the front.
class UnresolvedPrepares {
 public:
  size_t size() const { return by_txn_.size(); }
  uint64_t Get(TxnId txn) const { return by_txn_.Get(txn); }

  /// `index` must be past every index added before.
  void Add(TxnId txn, uint64_t index) {
    GEOTP_CHECK(order_.empty() || order_.back().first < index,
                "prepare entries arrive in log order");
    by_txn_.Put(txn, index);
    order_.emplace_back(index, txn);
  }
  void Resolve(TxnId txn) { by_txn_.Erase(txn); }

  /// Drops the prepares at index >= `from` (divergent-tail repair).
  void EraseFrom(uint64_t from) {
    by_txn_.EraseFrom(from);
    while (!order_.empty() && order_.back().first >= from) order_.pop_back();
  }

  void clear() {
    by_txn_.clear();
    order_.clear();
  }

  /// Index of the oldest unresolved prepare, 0 when there is none.
  uint64_t Oldest() {
    while (!order_.empty() &&
           by_txn_.Get(order_.front().second) != order_.front().first) {
      order_.pop_front();
    }
    return order_.empty() ? 0 : order_.front().first;
  }

  /// Calls fn(txn, index) once per unresolved prepare, in no order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    by_txn_.ForEach(std::forward<Fn>(fn));
  }

 private:
  TxnIndexMap by_txn_;
  std::deque<std::pair<uint64_t, TxnId>> order_;  ///< (index, txn), ascending
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_TXN_INDEX_MAP_H_
