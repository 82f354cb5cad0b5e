#include "sharding/shard_map.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace geotp {
namespace sharding {

std::string ShardRange::ToString() const {
  std::ostringstream out;
  out << "t" << table << "[" << lo << "," << hi << ")@" << owner << "/v"
      << version;
  return out.str();
}

ShardMap ShardMap::FromRangePartition(uint32_t table, uint64_t keys_per_node,
                                      const std::vector<NodeId>& owners,
                                      uint64_t chunks_per_owner) {
  GEOTP_CHECK(!owners.empty() && keys_per_node > 0 && chunks_per_owner > 0,
              "bad shard layout for table " << table);
  ShardMap map;
  for (size_t i = 0; i < owners.size(); ++i) {
    const uint64_t base = i * keys_per_node;
    for (uint64_t c = 0; c < chunks_per_owner; ++c) {
      ShardRange range;
      range.table = table;
      range.lo = base + c * keys_per_node / chunks_per_owner;
      range.hi = base + (c + 1) * keys_per_node / chunks_per_owner;
      // The catalog clamps keys beyond the last boundary to the last node;
      // the final chunk mirrors that by extending to the key-space end.
      if (i + 1 == owners.size() && c + 1 == chunks_per_owner) {
        range.hi = UINT64_MAX;
      }
      range.owner = owners[i];
      range.version = 0;
      if (range.lo < range.hi) map.ranges_.push_back(range);
    }
  }
  return map;
}

size_t ShardMap::Find(const RecordKey& key) const {
  // Binary search for the last range with (table, lo) <= (key.table, key).
  size_t lo = 0, hi = ranges_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const ShardRange& r = ranges_[mid];
    if (r.table < key.table || (r.table == key.table && r.lo <= key.key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return ranges_.size();
  const ShardRange& candidate = ranges_[lo - 1];
  return candidate.Contains(key) ? lo - 1 : ranges_.size();
}

NodeId ShardMap::Route(const RecordKey& key) const {
  const size_t idx = Find(key);
  return idx == ranges_.size() ? kInvalidNode : ranges_[idx].owner;
}

const ShardRange* ShardMap::RangeOf(const RecordKey& key) const {
  const size_t idx = Find(key);
  return idx == ranges_.size() ? nullptr : &ranges_[idx];
}

bool ShardMap::Move(size_t idx, NodeId new_owner, uint64_t version) {
  GEOTP_CHECK(idx < ranges_.size(), "shard index out of range");
  if (version <= epoch_ && version <= ranges_[idx].version) return false;
  ranges_[idx].owner = new_owner;
  ranges_[idx].version = version;
  epoch_ = std::max(epoch_, version);
  return true;
}

bool ShardMap::Split(size_t idx, uint64_t at, uint64_t version) {
  if (idx >= ranges_.size()) return false;
  ShardRange& range = ranges_[idx];
  if (at <= range.lo || at >= range.hi) return false;
  if (version <= epoch_) return false;
  ShardRange right = range;
  right.lo = at;
  right.version = version;
  range.hi = at;
  range.version = version;
  epoch_ = version;
  ranges_.insert(ranges_.begin() + static_cast<ptrdiff_t>(idx) + 1, right);
  return true;
}

bool ShardMap::SplitAt(uint32_t table, uint64_t at, uint64_t version) {
  const size_t idx = Find(RecordKey{table, at});
  return idx < ranges_.size() && Split(idx, at, version);
}

bool ShardMap::Merge(size_t idx, uint64_t version) {
  if (idx + 1 >= ranges_.size()) return false;
  ShardRange& left = ranges_[idx];
  const ShardRange& right = ranges_[idx + 1];
  if (left.table != right.table || left.hi != right.lo ||
      left.owner != right.owner) {
    return false;
  }
  if (version <= epoch_) return false;
  left.hi = right.hi;
  left.version = version;
  epoch_ = version;
  ranges_.erase(ranges_.begin() + static_cast<ptrdiff_t>(idx) + 1);
  return true;
}

bool ShardMap::AdoptOne(const ShardRange& entry) {
  // The incoming entry claims the sub-spans of [entry.lo, entry.hi) where
  // every local range covering them is strictly older; newer local ranges
  // block it on their piece. Rebuild the window accordingly: older locals
  // lose their overlapped part (their out-of-window parts survive with
  // their own version), then the unblocked gaps fill with entry-pieces.
  bool changed = false;
  std::vector<ShardRange> rebuilt;  // replacement for the window's locals
  std::vector<std::pair<uint64_t, uint64_t>> blocked;  // newer local spans
  size_t first = ranges_.size();
  size_t i = 0;
  for (; i < ranges_.size(); ++i) {
    const ShardRange& local = ranges_[i];
    if (local.table < entry.table ||
        (local.table == entry.table && local.hi <= entry.lo)) {
      continue;
    }
    if (local.table > entry.table || local.lo >= entry.hi) break;
    if (first == ranges_.size()) first = i;
    if (local.version >= entry.version) {
      rebuilt.push_back(local);
      blocked.emplace_back(std::max(local.lo, entry.lo),
                           std::min(local.hi, entry.hi));
      continue;
    }
    // Older local: keep only the parts outside the window.
    if (local.lo < entry.lo) {
      ShardRange left = local;
      left.hi = entry.lo;
      rebuilt.push_back(left);
    }
    if (local.hi > entry.hi) {
      ShardRange right = local;
      right.lo = entry.hi;
      rebuilt.push_back(right);
    }
    changed = true;
  }
  // Entry-pieces: the window minus the blocked (newer) sub-spans.
  uint64_t cursor = entry.lo;
  for (const auto& [blo, bhi] : blocked) {
    if (cursor < blo) {
      ShardRange piece = entry;
      piece.lo = cursor;
      piece.hi = blo;
      rebuilt.push_back(piece);
      changed = true;
    }
    cursor = std::max(cursor, bhi);
  }
  if (cursor < entry.hi) {
    ShardRange piece = entry;
    piece.lo = cursor;
    piece.hi = entry.hi;
    rebuilt.push_back(piece);
    changed = true;
  }
  if (changed) {
    std::sort(rebuilt.begin(), rebuilt.end(),
              [](const ShardRange& a, const ShardRange& b) {
                if (a.table != b.table) return a.table < b.table;
                return a.lo < b.lo;
              });
    if (first == ranges_.size()) first = i;
    ranges_.erase(ranges_.begin() + static_cast<ptrdiff_t>(first),
                  ranges_.begin() + static_cast<ptrdiff_t>(i));
    ranges_.insert(ranges_.begin() + static_cast<ptrdiff_t>(first),
                   rebuilt.begin(), rebuilt.end());
  }
  epoch_ = std::max(epoch_, entry.version);
  return changed;
}

bool ShardMap::Adopt(const std::vector<ShardRange>& entries) {
  bool changed = false;
  for (const ShardRange& entry : entries) {
    if (entry.lo >= entry.hi) continue;  // malformed span
    changed |= AdoptOne(entry);
  }
  return changed;
}

bool ShardMap::IsPartition(uint32_t table) const {
  uint64_t cursor = 0;
  bool seen = false;
  for (const ShardRange& range : ranges_) {
    if (range.table != table) continue;
    if (!seen) {
      if (range.lo != 0) return false;
      seen = true;
    } else if (range.lo != cursor) {
      return false;  // gap or overlap
    }
    if (range.hi <= range.lo) return false;
    cursor = range.hi;
  }
  return seen && cursor == UINT64_MAX;
}

}  // namespace sharding
}  // namespace geotp
