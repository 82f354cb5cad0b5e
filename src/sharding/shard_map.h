// ShardMap: the versioned key-range -> placement table of the elastic
// sharding subsystem.
//
// The static catalog partitioning pins every key to one data source
// forever; a skewed or drifting workload (Fig. 11 random/dynamic) then
// pins hot keys to one region and the latency-aware scheduler can only
// hide — never remove — the WAN round trips. The shard map overlays the
// catalog's range-partitioned tables with finer-grained chunks whose
// placement the ShardBalancer changes at runtime.
//
// Versioning: every range carries the map epoch at which its placement or
// boundaries last changed; the map's epoch is the max over its ranges. The
// balancer is the single writer, so per-span last-writer-wins adoption
// keeps every replica of the map (DMs and data sources) convergent even
// when updates and redirects arrive out of order or partially. Because
// Split/Merge change spans at runtime, adoption is overlap-aware: an
// incoming entry claims exactly the sub-spans where it is strictly newer
// than whatever covers them locally, so a replica holding pre-split
// boundaries and one holding post-split boundaries still converge.
#ifndef GEOTP_SHARDING_SHARD_MAP_H_
#define GEOTP_SHARDING_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace geotp {
namespace sharding {

/// One contiguous key range [lo, hi) of `table`, owned by the replica
/// group (or standalone data source) with logical id `owner`.
struct ShardRange {
  uint32_t table = 0;
  uint64_t lo = 0;  ///< inclusive
  uint64_t hi = 0;  ///< exclusive
  NodeId owner = kInvalidNode;
  /// Map epoch at which this range's placement last changed (0 = initial).
  uint64_t version = 0;
  GEOTP_WIRE_FIELDS(table, lo, hi, owner, version)

  bool Contains(const RecordKey& key) const {
    return key.table == table && key.key >= lo && key.key < hi;
  }
  bool SameSpan(const ShardRange& other) const {
    return table == other.table && lo == other.lo && hi == other.hi;
  }
  std::string ToString() const;
};

class ShardMap {
 public:
  /// Overlays a range-partitioned table (keys_per_node per owner, the
  /// catalog's layout) with `chunks_per_owner` equal chunks per partition,
  /// all at version 0. Chunk boundaries never change afterwards; only
  /// ownership moves.
  static ShardMap FromRangePartition(uint32_t table, uint64_t keys_per_node,
                                     const std::vector<NodeId>& owners,
                                     uint64_t chunks_per_owner);

  bool empty() const { return ranges_.empty(); }
  size_t size() const { return ranges_.size(); }
  uint64_t epoch() const { return epoch_; }
  const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// Owner of `key`, or kInvalidNode when no range covers it (caller falls
  /// back to the catalog's static routing).
  NodeId Route(const RecordKey& key) const;

  /// Range covering `key` (nullptr when uncovered).
  const ShardRange* RangeOf(const RecordKey& key) const;

  /// Re-owners range `idx`, stamping it with `version` (must exceed the
  /// current map epoch — the balancer allocates strictly increasing
  /// versions). Returns false on a stale version.
  bool Move(size_t idx, NodeId new_owner, uint64_t version);

  /// Splits range `idx` at key `at` (strictly inside its span) into
  /// [lo, at) and [at, hi), both keeping the owner and stamped with
  /// `version` (must exceed the current map epoch). Returns false when the
  /// split point or version is invalid.
  bool Split(size_t idx, uint64_t at, uint64_t version);

  /// Splits the range covering (`table`, `at`) at `at`. Same rules.
  bool SplitAt(uint32_t table, uint64_t at, uint64_t version);

  /// Merges range `idx` with its successor: both must be span-adjacent in
  /// the same table and owned by the same node. The merged [lo_i, hi_i+1)
  /// range is stamped with `version` (must exceed the current map epoch).
  bool Merge(size_t idx, uint64_t version);

  /// Last-writer-wins adoption of `entries`. Each entry claims exactly the
  /// sub-spans of [lo, hi) where every local range covering them is
  /// strictly older (uncovered sub-spans are claimed unconditionally — a
  /// DM may first learn the map from an update); local ranges that are
  /// newer keep their piece, older ones are trimmed or replaced. Returns
  /// true if anything changed.
  bool Adopt(const std::vector<ShardRange>& entries);

  /// True if the ranges of `table` exactly partition [0, UINT64_MAX) —
  /// sorted, no gap, no overlap, starting at 0 and ending open-ended.
  /// The invariant every Split/Merge/Move/Adopt must preserve.
  bool IsPartition(uint32_t table) const;

 private:
  /// Index of the range covering `key`, or npos.
  size_t Find(const RecordKey& key) const;
  bool AdoptOne(const ShardRange& entry);

  std::vector<ShardRange> ranges_;  ///< sorted by (table, lo)
  uint64_t epoch_ = 0;
};

}  // namespace sharding
}  // namespace geotp

#endif  // GEOTP_SHARDING_SHARD_MAP_H_
