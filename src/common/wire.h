// The one serializer: a little-endian writer and a bounds-checked reader
// driven by each struct's field list.
//
// A wire struct names its fields once, in wire order, with
// GEOTP_WIRE_FIELDS (common/types.h). Writer, Sizer and Reader visit that
// list and recurse into nested structs; the only types they spell out by
// hand are the leaves:
//
//   arithmetic       fixed width, little-endian (bool is one 0/1 byte)
//   enum             one byte; decoding rejects a byte past WireMax(E{})
//   std::string      u32 length + bytes
//   std::vector<T>   u32 count + elements
//   Status           code byte + message string
//   shared_ptr<const T>  presence byte + T when present
//
// Both the loopback message codec (runtime/codec.cc) and the WAN packers
// (protocol/wan_codec.cc) run on this, so a field has one layout
// everywhere. Decoding is total: a truncated or malformed buffer latches
// a failure flag (every later read is a no-op) and never reads past the
// end or allocates more than the remaining bytes could describe.
#ifndef GEOTP_COMMON_WIRE_H_
#define GEOTP_COMMON_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace geotp {
namespace wire {

template <class T>
using EnableIfArithmetic = std::enable_if_t<std::is_arithmetic_v<T>, int>;
template <class T>
using EnableIfEnum = std::enable_if_t<std::is_enum_v<T>, int>;
template <class T>
using EnableIfStruct = std::enable_if_t<std::is_class_v<T>, int>;

/// Where a writer's bytes go: appended to a string, or only counted.
struct StringSink {
  std::string* out;
  void Append(const void* p, size_t n) {
    out->append(static_cast<const char*>(p), n);
  }
};
struct CountSink {
  size_t bytes = 0;
  void Append(const void*, size_t n) { bytes += n; }
};

/// The encoding visitor. Writer and Sizer are this one visitor over the
/// two sinks, so an encoded size can never drift from the encoding.
template <class Sink>
class BasicWriter {
 public:
  explicit BasicWriter(Sink sink) : sink_(sink) {}

  /// Field-list visitor entry point: writes each field in order.
  template <class... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }

  void Put(bool v) { Put(static_cast<uint8_t>(v ? 1 : 0)); }
  template <class T, EnableIfArithmetic<T> = 0>
  void Put(T v) {
    // Little-endian hosts only; the codec has never run elsewhere.
    sink_.Append(&v, sizeof(v));
  }
  template <class E, EnableIfEnum<E> = 0>
  void Put(E v) {
    static_assert(sizeof(E) == 1, "wire enums travel as one byte");
    Put(static_cast<uint8_t>(v));
  }
  void Put(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    sink_.Append(s.data(), s.size());
  }
  void Put(const Status& s) {
    Put(s.code());
    Put(s.message());
  }
  template <class T>
  void Put(const std::vector<T>& v) {
    PutRange(v.begin(), v.end());
  }
  /// The vector encoding of the elements in [first, last): a run of any
  /// container packs without being copied into a vector first.
  template <class It>
  void PutRange(It first, It last) {
    Put(static_cast<uint32_t>(std::distance(first, last)));
    for (; first != last; ++first) Put(*first);
  }
  template <class T>
  void Put(const std::shared_ptr<const T>& p) {
    Put(p != nullptr);
    if (p != nullptr) Put(*p);
  }
  template <class T, EnableIfStruct<T> = 0>
  void Put(const T& s) {
    s.Fields(*this);
  }

 protected:
  Sink sink_;
};

/// Appends the encoding to a string.
class Writer : public BasicWriter<StringSink> {
 public:
  explicit Writer(std::string* out) : BasicWriter(StringSink{out}) {}
};

/// Sums the encoded size without storing or allocating anything.
class Sizer : public BasicWriter<CountSink> {
 public:
  Sizer() : BasicWriter(CountSink()) {}
  size_t bytes() const { return sink_.bytes; }
};

/// Encoded size of a default-constructed T: the fewest bytes any T can
/// occupy (its vectors and strings are empty, its pointers absent). Bounds
/// a decoded element count before anything is allocated for it. Sized
/// once per type.
template <class T>
size_t MinBytes() {
  static const size_t bytes = [] {
    Sizer sizer;
    sizer.Put(T{});
    return sizer.bytes();
  }();
  return bytes;
}

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}

  /// Field-list visitor entry point: reads each field in order.
  template <class... Ts>
  void operator()(Ts&... fields) {
    (Get(fields), ...);
  }

  void Get(bool& v) {
    uint8_t byte = 0;
    Raw(&byte, 1);
    v = byte != 0;
  }
  template <class T, EnableIfArithmetic<T> = 0>
  void Get(T& v) {
    Raw(&v, sizeof(v));
  }
  /// Each wire enum declares its last enumerator with a WireMax overload
  /// next to its definition; anything past it fails the decode.
  template <class E, EnableIfEnum<E> = 0>
  void Get(E& v) {
    uint8_t byte = 0;
    Raw(&byte, 1);
    if (byte > static_cast<uint8_t>(WireMax(E{}))) ok_ = false;
    if (ok_) v = static_cast<E>(byte);
  }
  void Get(std::string& s) {
    uint32_t n = 0;
    Get(n);
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    s.assign(in_, pos_, n);
    pos_ += n;
  }
  void Get(Status& s) {
    StatusCode code = StatusCode::kOk;
    std::string message;
    (*this)(code, message);
    if (ok_) s = Status::FromCode(code, std::move(message));
  }
  template <class T>
  void Get(std::vector<T>& v) {
    uint32_t n = 0;
    Get(n);
    if (!ok_ || n > (in_.size() - pos_) / MinBytes<T>()) {
      ok_ = false;
      return;
    }
    v.resize(n);
    for (T& item : v) {
      Get(item);
      if (!ok_) return;
    }
  }
  template <class T>
  void Get(std::shared_ptr<const T>& p) {
    bool present = false;
    Get(present);
    p.reset();
    if (!present || !ok_) return;
    auto value = std::make_shared<T>();
    Get(*value);
    p = std::move(value);
  }
  template <class T, EnableIfStruct<T> = 0>
  void Get(T& s) {
    s.Fields(*this);
  }

  bool ok() const { return ok_; }
  /// Everything consumed and nothing failed.
  bool AtEnd() const { return ok_ && pos_ == in_.size(); }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
  }

  const std::string& in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Whole-buffer helpers: `Pack` encodes one value; `Unpack` decodes one
/// and succeeds only if it consumed the buffer exactly. Decoding assigns
/// every field, so `value` may hold an earlier value whose vectors and
/// strings then reuse their capacity.
template <class T>
std::string Pack(const T& value) {
  std::string out;
  Writer(&out).Put(value);
  return out;
}
template <class T>
bool Unpack(const std::string& bytes, T* value) {
  Reader reader(bytes);
  reader.Get(*value);
  return reader.AtEnd();
}

}  // namespace wire
}  // namespace geotp

#endif  // GEOTP_COMMON_WIRE_H_
