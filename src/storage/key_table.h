// KeyTable: an open-addressing hash table keyed by RecordKey, the flat
// storage behind the record store and the lock table.
//
// Power-of-two capacity, linear probing, at most three quarters full. Each
// slot holds the key's fields and the value inline, so a lookup touches one
// slot run instead of chasing bucket and node pointers. Occupancy lives in
// the four padding bytes a RecordKey leaves after `table`, so every key
// value — key 0 and UINT64_MAX included — stays usable. Erase shifts the
// rest of the probe run back (no tombstones), so the table never degrades.
//
// Inserts and erases move values and invalidate pointers into the table;
// callers re-find after any call that may insert or erase. Iteration order
// is the slot order, i.e. unspecified: callers that need an order sort.
#ifndef GEOTP_STORAGE_KEY_TABLE_H_
#define GEOTP_STORAGE_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace geotp {
namespace storage {

template <typename V>
class KeyTable {
 public:
  size_t size() const { return size_; }

  V* Find(const RecordKey& key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[Probe(key)];
    return slot.used ? &slot.value : nullptr;
  }
  const V* Find(const RecordKey& key) const {
    return const_cast<KeyTable*>(this)->Find(key);
  }

  /// The value of `key`, value-initialized if it was absent.
  V& FindOrInsert(const RecordKey& key) {
    if (4 * (size_ + 1) > 3 * slots_.size()) Grow();
    Slot& slot = slots_[Probe(key)];
    if (!slot.used) {
      slot.table = key.table;
      slot.used = 1;
      slot.key = key.key;
      ++size_;
    }
    return slot.value;
  }

  /// Removes `key` if present.
  void Erase(const RecordKey& key) {
    if (slots_.empty()) return;
    const size_t mask = slots_.size() - 1;
    size_t hole = Probe(key);
    if (!slots_[hole].used) return;
    // Backward-shift deletion: pull each later slot of the probe run into
    // the hole unless that would move it before its home position.
    for (size_t i = (hole + 1) & mask; slots_[i].used; i = (i + 1) & mask) {
      const size_t home = RecordKeyHash()(slots_[i].Key()) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot();
    --size_;
  }

  /// Calls fn(key, value) once per resident key, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(slot.Key(), slot.value);
    }
  }

 private:
  struct Slot {
    uint32_t table = 0;
    uint32_t used = 0;  // occupancy, in RecordKey's padding
    uint64_t key = 0;
    V value{};
    RecordKey Key() const { return RecordKey{table, key}; }
  };

  /// Position holding `key`, or the empty position where it goes.
  size_t Probe(const RecordKey& key) const {
    const size_t mask = slots_.size() - 1;
    size_t pos = RecordKeyHash()(key) & mask;
    while (slots_[pos].used &&
           !(slots_[pos].key == key.key && slots_[pos].table == key.table)) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.used) slots_[Probe(slot.Key())] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_KEY_TABLE_H_
