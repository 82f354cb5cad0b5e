// In-memory record store: the "table" hosted by a data source.
//
// One open-addressing KeyTable of values: a read, and a write with its
// undo entry, each cost one probe. Keys never written are absent and read
// as 0 on every node.
#ifndef GEOTP_STORAGE_RECORD_STORE_H_
#define GEOTP_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "common/types.h"
#include "storage/key_table.h"

namespace geotp {
namespace storage {

struct Record {
  int64_t value = 0;
};

class RecordStore {
 public:
  /// Inserts or overwrites a record (bulk-load path, not transactional).
  void Put(const RecordKey& key, int64_t value) {
    table_.FindOrInsert(key) = value;
  }

  std::optional<Record> Get(const RecordKey& key) const {
    const int64_t* value = table_.Find(key);
    if (value == nullptr) return std::nullopt;
    return Record{*value};
  }

  /// Transactional write (replication apply, migration install): inserts
  /// or overwrites like Put. YCSB/TPC-C mostly update pre-loaded keys, but
  /// inserts — e.g. TPC-C NewOrder rows — land here too.
  void Apply(const RecordKey& key, int64_t value) { Put(key, value); }

  /// The value slot of `key`, created as 0 if absent: one probe for a
  /// read-modify-write. Valid until the next insert.
  int64_t& FindOrInsert(const RecordKey& key) {
    return table_.FindOrInsert(key);
  }

  size_t size() const { return table_.size(); }

  /// Calls fn(key, value) once per resident record, in no particular
  /// order (snapshot transfer: shard migration and replication follower
  /// bootstrap, whose callers sort). A snapshot of residents is complete,
  /// since absent keys read as 0 everywhere.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    table_.ForEach(std::forward<Fn>(fn));
  }

 private:
  KeyTable<int64_t> table_;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_RECORD_STORE_H_
