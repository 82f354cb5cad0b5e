// FlatMap: the one open-addressing hash table, for the hot lookup paths
// (the record store, the lock table, the replicator's transaction indexes,
// the hotspot footprint's index and the DM decision log).
//
// Power-of-two capacity, 16 slots at first, doubled when an insert would
// pass three quarters full; linear probing; erase shifts the rest of the
// probe run back (no tombstones), so the table never degrades. A slot
// holds the key, a 32-bit occupancy word and the value inline, so a lookup
// touches one run of slots instead of chasing bucket and node pointers.
// Occupancy is its own word, so no key value is reserved. For RecordKey
// the word sits in the four padding bytes after `table`.
//
// Inserts and erases move values and invalidate pointers into the table;
// callers re-find after any call that may insert or erase. Iteration order
// is the slot order, i.e. unspecified: callers that need an order sort.
#ifndef GEOTP_COMMON_FLAT_MAP_H_
#define GEOTP_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace geotp {
namespace common {

namespace flat_map_internal {

template <typename K, typename V>
struct Slot {
  K key_{};
  uint32_t used = 0;
  V value{};

  K key() const { return key_; }
  void set_key(const K& key) { key_ = key; }
  bool Holds(const K& key) const { return key_ == key; }
};

/// RecordKey's fields laid out around the occupancy word, which takes the
/// padding after `table`: a store slot is 24 bytes, not 32.
template <typename V>
struct Slot<RecordKey, V> {
  uint32_t table = 0;
  uint32_t used = 0;
  uint64_t key_ = 0;
  V value{};

  RecordKey key() const { return RecordKey{table, key_}; }
  void set_key(const RecordKey& key) {
    table = key.table;
    key_ = key.key;
  }
  bool Holds(const RecordKey& key) const {
    return key_ == key.key && table == key.table;
  }
};

}  // namespace flat_map_internal

template <typename K, typename V, typename Hash>
class FlatMap {
  using Slot = flat_map_internal::Slot<K, V>;

 public:
  static constexpr size_t kSlotBytes = sizeof(Slot);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 until the first insert).
  size_t capacity() const { return slots_.size(); }

  V* Find(const K& key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[Probe(key)];
    return slot.used ? &slot.value : nullptr;
  }
  const V* Find(const K& key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  /// Hints the cache to load the start of `key`'s probe run. Issued for a
  /// batch of keys before their lookups, it overlaps their cache misses.
  void Prefetch(const K& key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[Home(key)]);
  }

  /// The value of `key`, value-initialized if it was absent.
  V& FindOrInsert(const K& key) {
    size_t pos = 0;
    if (!slots_.empty()) {
      pos = Probe(key);
      if (slots_[pos].used) return slots_[pos].value;
    }
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      Grow();
      pos = Probe(key);
    }
    Slot& slot = slots_[pos];
    slot.set_key(key);
    slot.used = 1;
    ++size_;
    return slot.value;
  }

  /// Removes `key`; false if it was absent.
  bool Erase(const K& key) {
    if (slots_.empty()) return false;
    const size_t pos = Probe(key);
    if (!slots_[pos].used) return false;
    EraseAt(pos);
    return true;
  }

  /// Removes every entry for which pred(key, value) holds; returns how
  /// many. Each resident entry is tested exactly once.
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot: no probe run crosses the start, so
    // the back-shifts of an erase only move entries not yet visited.
    const size_t mask = slots_.size() - 1;
    size_t start = 0;
    while (slots_[start].used) ++start;
    size_t erased = 0;
    for (size_t n = 0; n < slots_.size(); ++n) {
      const size_t i = (start + 1 + n) & mask;
      // An erase at i may shift a later entry into i: test i again.
      while (slots_[i].used && pred(slots_[i].key(), slots_[i].value)) {
        EraseAt(i);
        ++erased;
      }
    }
    return erased;
  }

  /// Drops every entry; the next insert starts again at 16 slots.
  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// Calls fn(key, value) once per entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(slot.key(), slot.value);
    }
  }

 private:
  size_t Home(const K& key) const {
    return Hash()(key) & (slots_.size() - 1);
  }

  /// Position holding `key`, or the empty position where it goes.
  size_t Probe(const K& key) const {
    const size_t mask = slots_.size() - 1;
    size_t pos = Home(key);
    while (slots_[pos].used && !slots_[pos].Holds(key)) pos = (pos + 1) & mask;
    return pos;
  }

  /// Backward-shift deletion: pull each later slot of the probe run into
  /// the hole unless that would move it before its home position.
  void EraseAt(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = (hole + 1) & mask; slots_[i].used; i = (i + 1) & mask) {
      const size_t home = Home(slots_[i].key());
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot();
    --size_;
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.used) slots_[Probe(slot.key())] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace common
}  // namespace geotp

#endif  // GEOTP_COMMON_FLAT_MAP_H_
