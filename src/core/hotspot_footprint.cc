#include "core/hotspot_footprint.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace geotp {
namespace core {

HotspotFootprint::HotspotFootprint(FootprintConfig config)
    : config_(config) {
  GEOTP_CHECK(config_.capacity > 0, "capacity must be positive");
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

void HotspotFootprint::MakeRoom(Slot keep) {
  // Walk from the cold end. Records with transactions in flight are never
  // evicted (their a_cnt would be lost and Eq. 9 would undercount the
  // queue), nor is `keep`, the record just inserted at the head; if every
  // other record is busy, allow a soft overflow.
  Slot victim = lru_tail_;
  while (index_.size() > config_.capacity) {
    while (victim != kNil &&
           (victim == keep || nodes_[victim].stats.a_cnt > 0)) {
      victim = nodes_[victim].lru_prev;
    }
    if (victim == kNil) return;
    const Slot warmer = nodes_[victim].lru_prev;
    LruUnlink(victim);
    index_.Erase(nodes_[victim].key);
    ordered_stale_ = true;
    free_.push_back(victim);
    ++evictions_;
    victim = warmer;
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

HotspotFootprint::Slot HotspotFootprint::FindNode(const RecordKey& key) const {
  const Slot* slot = index_.Find(key);
  return slot == nullptr ? kNil : *slot;
}

HotspotFootprint::Slot HotspotFootprint::Touch(const RecordKey& key) {
  // One probe finds the record or claims its index entry.
  const size_t tracked = index_.size();
  Slot& indexed = index_.FindOrInsert(key);
  if (index_.size() == tracked) {
    const Slot slot = indexed;
    LruUnlink(slot);
    LruPushFront(slot);
    return slot;
  }
  Slot slot;
  if (free_.empty()) {
    slot = static_cast<Slot>(nodes_.size());
    nodes_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  indexed = slot;  // before MakeRoom, whose erases move index entries
  ordered_stale_ = true;
  Node& node = nodes_[slot];
  node.key = key;
  node.stats = RecordStats{};
  node.stats.w_lat = kInitialWLat;
  LruPushFront(slot);
  MakeRoom(slot);
  return slot;
}

HotspotFootprint::Node& HotspotFootprint::Charged(Slot slot) {
  // MakeRoom skips records with a_cnt > 0, so a charged slot still holds
  // its record; a slot without a charge means a stale or reused handle.
  GEOTP_CHECK(slot < nodes_.size() && nodes_[slot].stats.a_cnt > 0,
              "footprint charge on slot " << slot << " holds no a_cnt");
  return nodes_[slot];
}

void HotspotFootprint::OnDispatch(const std::vector<RecordKey>& keys,
                                  FootprintCharge* charge) {
  GEOTP_CHECK(charge->empty(), "footprint charge dispatched twice");
  for (const RecordKey& key : keys) index_.Prefetch(key);
  charge->slots_.reserve(keys.size());
  for (const RecordKey& key : keys) {
    const Slot slot = Touch(key);
    nodes_[slot].stats.a_cnt++;
    charge->slots_.push_back(slot);
  }
}

void HotspotFootprint::OnComplete(FootprintCharge* charge,
                                  Micros measured_lel, bool committed) {
  std::vector<Slot>& slots = charge->slots_;
  if (slots.empty()) return;
  for (const Slot slot : slots) __builtin_prefetch(&nodes_[slot]);
  // Eq. 4 weights: w_r = w_lat_r / sum of w_lat over the accessed records.
  double w_sum = 0.0;
  for (const Slot slot : slots) w_sum += Charged(slot).stats.w_lat;
  if (w_sum <= 0.0) w_sum = 1.0;

  for (const Slot slot : slots) {
    RecordStats& stats = Charged(slot).stats;
    LruUnlink(slot);
    LruPushFront(slot);
    if (committed) {
      const double weight = stats.w_lat > 0.0 ? stats.w_lat / w_sum
                                              : 1.0 / slots.size();
      const double contribution =
          static_cast<double>(measured_lel) * weight;
      stats.w_lat = config_.alpha * stats.w_lat +
                    (1.0 - config_.alpha) * contribution;
    }
    stats.t_cnt++;
    if (committed) stats.c_cnt++;
    stats.a_cnt--;
  }
  slots.clear();
}

void HotspotFootprint::OnRelease(FootprintCharge* charge) {
  for (const Slot slot : charge->slots_) Charged(slot).stats.a_cnt--;
  charge->slots_.clear();
}

Micros HotspotFootprint::Forecast(const std::vector<RecordKey>& keys,
                                  double* success) const {
  double total = 0.0;
  for (const RecordKey& key : keys) index_.Prefetch(key);
  for (const RecordKey& key : keys) {
    const Slot slot = FindNode(key);
    if (slot == kNil) continue;
    const RecordStats& stats = nodes_[slot].stats;
    total += stats.w_lat;
    if (success == nullptr || stats.a_cnt <= 1) continue;
    *success *= std::pow(stats.SuccessRatio(),
                         static_cast<double>(stats.a_cnt - 1));
  }
  return static_cast<Micros>(total);
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
    index_.ForEach([this](const RecordKey& key, Slot slot) {
      ordered_.emplace_back(key, slot);
    });
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
         index_.capacity() * index_.kSlotBytes +
         ordered_.capacity() * sizeof(ordered_[0]);
}

bool HotspotFootprint::CheckInvariants() const {
  size_t indexed = 0;
  bool agree = true;
  index_.ForEach([&](const RecordKey& key, Slot slot) {
    ++indexed;
    agree = agree && slot < nodes_.size() && nodes_[slot].key == key &&
            FindNode(key) == slot;
  });
  const size_t size = index_.size();
  if (!agree || indexed != size || size + free_.size() != nodes_.size()) {
    return false;
  }
  // The LRU list is well linked and holds exactly the indexed records.
  size_t lru_count = 0;
  Slot prev = kNil;
  for (Slot slot = lru_head_; slot != kNil; slot = nodes_[slot].lru_next) {
    if (++lru_count > size) return false;
    const Node& node = nodes_[slot];
    if (node.lru_prev != prev || FindNode(node.key) != slot) return false;
    prev = slot;
  }
  return prev == lru_tail_ && lru_count == size;
}

}  // namespace core
}  // namespace geotp
