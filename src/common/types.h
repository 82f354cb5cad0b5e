// Core identifier and time types shared by every layer.
//
// All simulated time is expressed in integer microseconds of virtual time
// (Micros). Durations use the same unit. Helper constructors convert from
// milliseconds/seconds so call sites read like the paper ("73 ms RTT").
#ifndef GEOTP_COMMON_TYPES_H_
#define GEOTP_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

/// Names a wire struct's fields once, in wire order. The serializer in
/// common/wire.h visits this list to encode and to decode the struct, so
/// a field added here is on the wire everywhere the struct travels.
#define GEOTP_WIRE_FIELDS(...)      \
  template <class V>                \
  void Fields(V& v) {               \
    v(__VA_ARGS__);                 \
  }                                 \
  template <class V>                \
  void Fields(V& v) const {         \
    v(__VA_ARGS__);                 \
  }

/// Names a stats struct's uint64_t counters once. Registry export
/// (obs::MetricsRegistry::RegisterStats) and cross-node aggregation
/// (metrics::Accumulate) walk this list. Wrap a high-water field in
/// HighWater(...) so aggregation takes the max instead of the sum. A
/// member left out of the list fails the static_assert.
#define GEOTP_STAT_FIELDS(...)                                           \
  GEOTP_WIRE_FIELDS(__VA_ARGS__)                                         \
  const char* FieldNames() const {                                       \
    static_assert(sizeof(*this) ==                                       \
                      sizeof(uint64_t) *                                 \
                          decltype(::geotp::CountStatFields(             \
                              __VA_ARGS__))::value,                      \
                  "a stats field is missing from GEOTP_STAT_FIELDS");    \
    return #__VA_ARGS__;                                                 \
  }

namespace geotp {

/// A GEOTP_STAT_FIELDS entry marked as a high-water mark.
template <class T>
struct HighWaterRef {
  T& value;
  operator T&() const { return value; }  // NOLINT implicit
};
template <class T>
HighWaterRef<T> HighWater(T& value) {
  return {value};
}
/// Declared only: GEOTP_STAT_FIELDS counts its list with it, unevaluated.
template <class... F>
std::integral_constant<size_t, sizeof...(F)> CountStatFields(const F&...);

/// Splits FieldNames() into bare names: "a, HighWater(b)" -> {"a", "b"}.
std::vector<std::string> SplitStatFieldNames(const char* list);

/// Virtual time point / duration, in microseconds.
using Micros = int64_t;

constexpr Micros kMicrosPerMilli = 1000;
constexpr Micros kMicrosPerSecond = 1000 * 1000;

/// Converts milliseconds to Micros (accepts fractional milliseconds).
constexpr Micros MsToMicros(double ms) {
  return static_cast<Micros>(ms * static_cast<double>(kMicrosPerMilli));
}

/// Converts seconds to Micros.
constexpr Micros SecToMicros(double sec) {
  return static_cast<Micros>(sec * static_cast<double>(kMicrosPerSecond));
}

/// Converts Micros to fractional milliseconds (for reporting).
constexpr double MicrosToMs(Micros us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerMilli);
}

/// Converts Micros to fractional seconds (for reporting).
constexpr double MicrosToSec(Micros us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerSecond);
}

/// Identifies a simulated node (middleware, data source, or client host).
/// Values are dense indexes into the topology's node table.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

/// Global transaction identifier assigned by a middleware instance.
/// Encodes the originating middleware in the high bits so that ids from
/// multiple DMs (Fig. 15 deployment) never collide.
using TxnId = uint64_t;
constexpr TxnId kInvalidTxn = 0;

/// Builds a TxnId from the middleware ordinal and a per-DM sequence number.
constexpr TxnId MakeTxnId(uint32_t middleware_ordinal, uint64_t seq) {
  return (static_cast<TxnId>(middleware_ordinal) << 48) | (seq & 0xFFFFFFFFFFFFULL);
}

/// The splitmix64 finalizer: spreads every input bit across the word.
/// The one 64-bit mix behind the flat tables' hashes, the PRNG seeding
/// and trace ids.
constexpr uint64_t Mix64(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Transaction ids are dense per DM: mix them before masking to a slot.
struct TxnIdHash {
  size_t operator()(TxnId id) const { return static_cast<size_t>(Mix64(id)); }
};

/// XA branch identifier: global txn + participant data source.
struct Xid {
  TxnId txn_id = kInvalidTxn;
  NodeId data_source = kInvalidNode;
  GEOTP_WIRE_FIELDS(txn_id, data_source)

  bool operator==(const Xid& other) const {
    return txn_id == other.txn_id && data_source == other.data_source;
  }

  std::string ToString() const;
};

struct XidHash {
  size_t operator()(const Xid& xid) const {
    return std::hash<TxnId>()(xid.txn_id) * 31 +
           std::hash<NodeId>()(xid.data_source);
  }
};

/// A record key. Table-qualified: partitioning and lock manager operate on
/// (table, key) pairs packed into one 64-bit value for cheap hashing.
struct RecordKey {
  uint32_t table = 0;
  uint64_t key = 0;
  GEOTP_WIRE_FIELDS(table, key)

  bool operator==(const RecordKey& other) const {
    return table == other.table && key == other.key;
  }
  bool operator<(const RecordKey& other) const {
    if (table != other.table) return table < other.table;
    return key < other.key;
  }

  std::string ToString() const;
};

struct RecordKeyHash {
  size_t operator()(const RecordKey& k) const {
    return static_cast<size_t>(
        Mix64((static_cast<uint64_t>(k.table) << 56) ^ k.key));
  }
};

}  // namespace geotp

#endif  // GEOTP_COMMON_TYPES_H_
