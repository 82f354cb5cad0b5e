#include "core/hotspot_footprint.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace geotp {
namespace core {

HotspotFootprint::HotspotFootprint(FootprintConfig config)
    : config_(config), index_(16) {
  GEOTP_CHECK(config_.capacity > 0, "capacity must be positive");
}

// ---------------------------------------------------------------------------
// Hash index (linear probing)
// ---------------------------------------------------------------------------

size_t HotspotFootprint::Probe(const RecordKey& key) const {
  const size_t mask = index_.size() - 1;
  size_t pos = RecordKeyHash()(key) & mask;
  while (index_[pos].slot != kNil && !(index_[pos].Key() == key)) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void HotspotFootprint::IndexInsert(const RecordKey& key, Slot slot) {
  if (2 * (size_ + 1) > index_.size()) {
    std::vector<IndexEntry> old(2 * index_.size());
    old.swap(index_);
    for (const IndexEntry& entry : old) {
      if (entry.slot != kNil) index_[Probe(entry.Key())] = entry;
    }
  }
  index_[Probe(key)] = IndexEntry{key.key, key.table, slot};
  ++size_;
  ordered_stale_ = true;
}

void HotspotFootprint::IndexErase(const RecordKey& key) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home position.
  const size_t mask = index_.size() - 1;
  size_t hole = Probe(key);
  for (size_t i = (hole + 1) & mask; index_[i].slot != kNil;
       i = (i + 1) & mask) {
    const size_t home = RecordKeyHash()(index_[i].Key()) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole].slot = kNil;
  --size_;
  ordered_stale_ = true;
}

// ---------------------------------------------------------------------------
// LRU primitives
// ---------------------------------------------------------------------------

void HotspotFootprint::LruPushFront(Slot slot) {
  Node& node = nodes_[slot];
  node.lru_prev = kNil;
  node.lru_next = lru_head_;
  if (lru_head_ != kNil) nodes_[lru_head_].lru_prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void HotspotFootprint::LruUnlink(Slot slot) {
  Node& node = nodes_[slot];
  if (node.lru_prev != kNil) {
    nodes_[node.lru_prev].lru_next = node.lru_next;
  } else {
    lru_head_ = node.lru_next;
  }
  if (node.lru_next != kNil) {
    nodes_[node.lru_next].lru_prev = node.lru_prev;
  } else {
    lru_tail_ = node.lru_prev;
  }
  node.lru_prev = node.lru_next = kNil;
}

void HotspotFootprint::MakeRoom() {
  // Walk from the cold end. Records with transactions in flight are never
  // evicted (their a_cnt would be lost and Eq. 9 would undercount the
  // queue); if every record is busy, allow a soft overflow.
  Slot victim = lru_tail_;
  while (size_ >= config_.capacity) {
    while (victim != kNil && nodes_[victim].stats.a_cnt > 0) {
      victim = nodes_[victim].lru_prev;
    }
    if (victim == kNil) return;
    const Slot warmer = nodes_[victim].lru_prev;
    LruUnlink(victim);
    IndexErase(nodes_[victim].key);
    free_.push_back(victim);
    ++evictions_;
    victim = warmer;
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

HotspotFootprint::Slot HotspotFootprint::FindNode(const RecordKey& key) const {
  return index_[Probe(key)].slot;
}

HotspotFootprint::Node& HotspotFootprint::Touch(const RecordKey& key) {
  Slot slot = FindNode(key);
  if (slot != kNil) {
    LruUnlink(slot);
    LruPushFront(slot);
    return nodes_[slot];
  }
  MakeRoom();
  if (free_.empty()) {
    slot = static_cast<Slot>(nodes_.size());
    nodes_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  IndexInsert(key, slot);
  Node& node = nodes_[slot];
  node.key = key;
  node.stats = RecordStats{};
  node.stats.w_lat = config_.initial_w_lat;
  LruPushFront(slot);
  return node;
}

void HotspotFootprint::OnDispatch(const std::vector<RecordKey>& keys) {
  for (const RecordKey& key : keys) Touch(key).stats.a_cnt++;
}

void HotspotFootprint::OnComplete(const std::vector<RecordKey>& keys,
                                  Micros measured_lel, bool committed) {
  if (keys.empty()) return;
  // Eq. 4 weights: w_r = w_lat_r / sum of w_lat over the accessed records.
  double w_sum = 0.0;
  for (const RecordKey& key : keys) {
    const Slot slot = FindNode(key);
    w_sum += slot != kNil ? nodes_[slot].stats.w_lat : config_.initial_w_lat;
  }
  if (w_sum <= 0.0) w_sum = 1.0;

  for (const RecordKey& key : keys) {
    RecordStats& stats = Touch(key).stats;
    if (committed) {
      const double weight = stats.w_lat > 0.0 ? stats.w_lat / w_sum
                                              : 1.0 / keys.size();
      const double contribution =
          static_cast<double>(measured_lel) * weight;
      stats.w_lat = config_.alpha * stats.w_lat +
                    (1.0 - config_.alpha) * contribution;
    }
    stats.t_cnt++;
    if (committed) stats.c_cnt++;
    if (stats.a_cnt > 0) stats.a_cnt--;
  }
}

void HotspotFootprint::OnRelease(const std::vector<RecordKey>& keys) {
  for (const RecordKey& key : keys) {
    const Slot slot = FindNode(key);
    if (slot != kNil && nodes_[slot].stats.a_cnt > 0) {
      nodes_[slot].stats.a_cnt--;
    }
  }
}

Micros HotspotFootprint::ForecastLel(
    const std::vector<RecordKey>& keys) const {
  double total = 0.0;
  for (const RecordKey& key : keys) {
    const Slot slot = FindNode(key);
    if (slot != kNil) total += nodes_[slot].stats.w_lat;
  }
  return static_cast<Micros>(total);
}

double HotspotFootprint::AbortProbability(
    const std::vector<RecordKey>& keys) const {
  double success = 1.0;
  for (const RecordKey& key : keys) {
    const Slot slot = FindNode(key);
    if (slot == kNil) continue;
    const RecordStats& stats = nodes_[slot].stats;
    const auto queue_len =
        static_cast<double>(std::max<int64_t>(stats.a_cnt - 1, 0));
    if (queue_len <= 0.0) continue;
    success *= std::pow(stats.SuccessRatio(), queue_len);
  }
  return 1.0 - success;
}

const RecordStats* HotspotFootprint::Lookup(const RecordKey& key) const {
  const Slot slot = FindNode(key);
  return slot == kNil ? nullptr : &nodes_[slot].stats;
}

std::vector<std::pair<RecordKey, RecordStats>> HotspotFootprint::Range(
    const RecordKey& lo, const RecordKey& hi) const {
  // The balancer asks for every shard range in one tick, so sort the
  // record set once and reuse the order until a record comes or goes.
  if (ordered_stale_) {
    ordered_.clear();
    for (const IndexEntry& entry : index_) {
      if (entry.slot != kNil) ordered_.emplace_back(entry.Key(), entry.slot);
    }
    std::sort(ordered_.begin(), ordered_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ordered_stale_ = false;
  }
  std::vector<std::pair<RecordKey, RecordStats>> out;
  auto it = std::lower_bound(
      ordered_.begin(), ordered_.end(), lo,
      [](const auto& entry, const RecordKey& key) { return entry.first < key; });
  for (; it != ordered_.end() && !(hi < it->first); ++it) {
    out.emplace_back(it->first, nodes_[it->second].stats);
  }
  return out;
}

HotspotFootprint::HeatHistogram HotspotFootprint::Histogram(
    const RecordKey& lo, const RecordKey& hi, size_t buckets) const {
  HeatHistogram hist;
  if (buckets == 0) return hist;
  const auto records = Range(lo, hi);
  if (records.empty()) return hist;
  hist.extent_lo = records.front().first.key;
  hist.extent_hi = records.back().first.key;
  hist.bucket_width = (hist.extent_hi - hist.extent_lo) / buckets + 1;
  hist.buckets.assign(buckets, 0);
  for (const auto& [key, stats] : records) {
    const size_t b = std::min<uint64_t>(
        (key.key - hist.extent_lo) / hist.bucket_width, buckets - 1);
    hist.buckets[b] += stats.t_cnt;
    hist.total += stats.t_cnt;
  }
  return hist;
}

size_t HotspotFootprint::ApproxBytes() const {
  return nodes_.capacity() * sizeof(Node) + free_.capacity() * sizeof(Slot) +
         index_.size() * sizeof(IndexEntry) +
         ordered_.capacity() * sizeof(ordered_[0]);
}

bool HotspotFootprint::CheckInvariants() const {
  size_t indexed = 0;
  for (const IndexEntry& entry : index_) {
    if (entry.slot == kNil) continue;
    ++indexed;
    if (entry.slot >= nodes_.size() ||
        !(nodes_[entry.slot].key == entry.Key()) ||
        FindNode(entry.Key()) != entry.slot) {
      return false;
    }
  }
  if (indexed != size_ || size_ + free_.size() != nodes_.size()) return false;
  // The LRU list is well linked and holds exactly the indexed records.
  size_t lru_count = 0;
  Slot prev = kNil;
  for (Slot slot = lru_head_; slot != kNil; slot = nodes_[slot].lru_next) {
    if (++lru_count > size_) return false;
    const Node& node = nodes_[slot];
    if (node.lru_prev != prev || FindNode(node.key) != slot) return false;
    prev = slot;
  }
  return prev == lru_tail_ && lru_count == size_;
}

}  // namespace core
}  // namespace geotp
