// UnresolvedPrepares: the replicator's prepare tracking, by transaction.
//
// Iteration order is the slot order, i.e. unspecified; every caller folds
// it into an order-independent result (a minimum, a sorted list, a set).
#ifndef GEOTP_REPLICATION_UNRESOLVED_PREPARES_H_
#define GEOTP_REPLICATION_UNRESOLVED_PREPARES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/types.h"

namespace geotp {
namespace replication {

/// The prepare entries without a later commit or abort entry, by
/// transaction, plus the oldest of them: it pins log compaction, and a
/// follower asks after every append. Prepares are appended at the log end,
/// so a queue in index order holds them; a resolved one leaves the queue
/// lazily once it reaches the front.
class UnresolvedPrepares {
 public:
  size_t size() const { return by_txn_.size(); }
  /// The prepare's log index, 0 when `txn` has none (indexes start at 1).
  uint64_t Get(TxnId txn) const {
    const uint64_t* index = by_txn_.Find(txn);
    return index == nullptr ? 0 : *index;
  }

  /// `index` must be past every index added before.
  void Add(TxnId txn, uint64_t index) {
    GEOTP_CHECK(order_.empty() || order_.back().first < index,
                "prepare entries arrive in log order");
    by_txn_.FindOrInsert(txn) = index;
    order_.emplace_back(index, txn);
  }
  void Resolve(TxnId txn) { by_txn_.Erase(txn); }

  /// Drops the prepares at index >= `from` (divergent-tail repair).
  void EraseFrom(uint64_t from) {
    by_txn_.EraseIf([from](TxnId, uint64_t index) { return index >= from; });
    while (!order_.empty() && order_.back().first >= from) order_.pop_back();
  }

  void clear() {
    by_txn_.clear();
    order_.clear();
  }

  /// Index of the oldest unresolved prepare, 0 when there is none.
  uint64_t Oldest() {
    while (!order_.empty() &&
           Get(order_.front().second) != order_.front().first) {
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
  common::FlatMap<TxnId, uint64_t, TxnIdHash> by_txn_;
  std::deque<std::pair<uint64_t, TxnId>> order_;  ///< (index, txn), ascending
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_UNRESOLVED_PREPARES_H_
