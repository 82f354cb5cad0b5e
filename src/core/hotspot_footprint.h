// HotspotFootprint: per-record runtime statistics for the high-contention
// optimizations (paper §IV-C, "Hotspot statistics collecting").
//
// For each hot record r it maintains the paper's four fields:
//   w_lat_r  — weighted average latency of subtransactions touching r
//   t_cnt_r  — total transactions that accessed r
//   c_cnt_r  — committed transactions that accessed r
//   a_cnt_r  — transactions currently accessing r
//
// The paper keeps the records in an AVL tree with an LRU list evicting
// cold entries. Here they live in one contiguous node array reached
// through a common::FlatMap index, with the LRU list linked by array
// index, so every point operation (the DM consults several per key
// per round) is O(1). Only the shard balancer's periodic tick needs key
// order; Range() and Histogram() scan and sort for it.
//
// w_lat updates follow Eq. 4: the measured local execution latency
// LEL(Tij) of a subtransaction is split across the records it touched
// proportionally to their current w_lat, then folded in with coefficient
// alpha.
//
// A dispatch is charged once by key and settled by handle: OnDispatch
// records the node slots it charged in a FootprintCharge, and
// OnComplete/OnRelease settle those slots without another index probe. A
// charged record is never evicted, so the slots stay valid. The DM's
// round path thus probes the index twice per key: Forecast() (Eq. 5 and
// Eq. 9 together) and the charge.
#ifndef GEOTP_CORE_HOTSPOT_FOOTPRINT_H_
#define GEOTP_CORE_HOTSPOT_FOOTPRINT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace geotp {
namespace core {

struct FootprintConfig {
  /// Maximum tracked records; beyond it the LRU tail is evicted.
  size_t capacity = 100000;
  /// Weighted-update coefficient alpha in Eq. 4 (history weight).
  double alpha = 0.7;
};

/// Initial w_lat for a record first seen (us). A small value so cold
/// records contribute little to forecasts until measured.
constexpr double kInitialWLat = 100.0;

struct RecordStats {
  double w_lat = 0.0;   ///< us
  uint64_t t_cnt = 0;
  uint64_t c_cnt = 0;
  int64_t a_cnt = 0;

  /// Probability that one queued transaction acquires the lock on this
  /// record without being aborted: c_cnt / t_cnt (1.0 with no history).
  double SuccessRatio() const {
    return t_cnt == 0 ? 1.0
                      : static_cast<double>(c_cnt) /
                            static_cast<double>(t_cnt);
  }
};

class HotspotFootprint;

/// The records one dispatch charged (a_cnt++), as node slots in key order;
/// a key listed twice holds two charges. Valid until OnComplete or
/// OnRelease settles it, which empties it. Keep one per dispatcher and
/// reuse it: its buffer survives the settle.
class FootprintCharge {
 public:
  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }

 private:
  friend class HotspotFootprint;
  std::vector<uint32_t> slots_;
};

class HotspotFootprint {
 public:
  explicit HotspotFootprint(FootprintConfig config = FootprintConfig());

  HotspotFootprint(const HotspotFootprint&) = delete;
  HotspotFootprint& operator=(const HotspotFootprint&) = delete;

  /// Marks the records as being accessed (a_cnt++), tracking new ones,
  /// and records their slots in `charge`, which must be empty. Called
  /// when the DM dispatches a subtransaction.
  void OnDispatch(const std::vector<RecordKey>& keys, FootprintCharge* charge);

  /// Feedback after a subtransaction finishes: updates w_lat (Eq. 4,
  /// committed only — aborted latencies embed timeout noise), t_cnt,
  /// c_cnt, and releases a_cnt. Settles and empties `charge`.
  void OnComplete(FootprintCharge* charge, Micros measured_lel,
                  bool committed);

  /// Releases a_cnt only (no completion statistics): used when a dispatch
  /// was cancelled or the transaction settled before its response arrived,
  /// i.e. no lock acquisition outcome was observed. Settles and empties
  /// `charge`.
  void OnRelease(FootprintCharge* charge);

  /// Eq. 5 and Eq. 9 in one probe per key. Returns the forecasted local
  /// execution latency of a subtransaction that will access `keys`: the
  /// sum of their tracked w_lat values (Eq. 5). When `success` is given,
  /// multiplies it by (c/t)^max(a-1, 0) of each tracked key, in key order:
  /// chained from 1.0 over the participants of a round, 1 - *success is
  /// the round's Eq. 9 abort probability, the product over all its keys.
  Micros Forecast(const std::vector<RecordKey>& keys, double* success) const;

  /// Point lookup (nullptr if not tracked). Does not touch LRU order. The
  /// pointer is valid until the next OnDispatch.
  const RecordStats* Lookup(const RecordKey& key) const;

  /// Ordered range scan [lo, hi] (predicate estimation). Sorts every
  /// tracked record on the first call after the record set changed
  /// (O(n log n)), then answers by binary search: O(log n + matches).
  std::vector<std::pair<RecordKey, RecordStats>> Range(
      const RecordKey& lo, const RecordKey& hi) const;

  /// Access-heat histogram over [lo, hi]: t_cnt totals in `buckets`
  /// equal-width buckets spanning the OBSERVED key extent (not the
  /// nominal range — a table's last shard chunk is open-ended). The
  /// ShardBalancer reads this to detect skew-within-chunk and split the
  /// hot sub-range out.
  struct HeatHistogram {
    uint64_t extent_lo = 0;  ///< smallest tracked key in range
    uint64_t extent_hi = 0;  ///< largest tracked key in range
    uint64_t bucket_width = 1;
    uint64_t total = 0;      ///< sum of all buckets
    std::vector<uint64_t> buckets;
    bool empty() const { return buckets.empty(); }
  };
  HeatHistogram Histogram(const RecordKey& lo, const RecordKey& hi,
                          size_t buckets) const;

  size_t size() const { return index_.size(); }
  uint64_t evictions() const { return evictions_; }

  /// Approximate resident bytes (memory proxy for Fig. 6b): node array,
  /// free list, hash index and the Range() order.
  size_t ApproxBytes() const;

  /// Validates that the index, the node array and the LRU list agree;
  /// test hook.
  bool CheckInvariants() const;

 private:
  /// Position in nodes_; kNil ends the LRU list or marks a missing key.
  using Slot = uint32_t;
  static constexpr Slot kNil = UINT32_MAX;

  struct Node {
    RecordKey key;
    RecordStats stats;
    Slot lru_prev = kNil;  ///< toward the head (more recent)
    Slot lru_next = kNil;  ///< toward the tail (colder)
  };

  Slot FindNode(const RecordKey& key) const;
  /// Finds or inserts (then evicting others); moves it to the LRU head.
  Slot Touch(const RecordKey& key);
  /// The node of a slot a charge holds; stops the run on a stale handle.
  Node& Charged(Slot slot);
  /// Evicts cold idle records other than `keep` until the record count is
  /// back within capacity.
  void MakeRoom(Slot keep);

  // LRU primitives (head = most recent).
  void LruPushFront(Slot slot);
  void LruUnlink(Slot slot);

  FootprintConfig config_;
  std::vector<Node> nodes_;
  std::vector<Slot> free_;  ///< evicted slots, reused by the next insert
  /// Key -> node slot.
  common::FlatMap<RecordKey, Slot, RecordKeyHash> index_;
  /// Records sorted by key for Range(); rebuilt when the set has changed.
  mutable std::vector<std::pair<RecordKey, Slot>> ordered_;
  mutable bool ordered_stale_ = false;
  Slot lru_head_ = kNil;
  Slot lru_tail_ = kNil;
  uint64_t evictions_ = 0;
};

}  // namespace core
}  // namespace geotp

#endif  // GEOTP_CORE_HOTSPOT_FOOTPRINT_H_
