// Status and Result<T>: exception-free error handling in the style of
// RocksDB/Arrow. Every fallible operation in the library returns one of
// these; callers must inspect them (the types are marked nodiscard).
#ifndef GEOTP_COMMON_STATUS_H_
#define GEOTP_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace geotp {

/// Error categories used across the library. Codes are stable and intended
/// for programmatic dispatch; messages are for humans.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kTimedOut,        ///< lock-wait or network timeout
  kAborted,         ///< transaction aborted (deadlock victim, early abort, ...)
  kConflict,        ///< write-write/version conflict (ScalarDB-style CC)
  kUnavailable,     ///< node crashed or link down
  kCorruption,      ///< log / recovery inconsistency
  kNotSupported,
  kInternal,
};

/// Last enumerator: the wire reader (common/wire.h) rejects larger bytes.
constexpr StatusCode WireMax(StatusCode) { return StatusCode::kInternal; }

/// Returns a stable human-readable name for a status code ("Aborted", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap value type carrying a StatusCode and an optional message.
/// Ok statuses never allocate.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// Rebuilds a status from its (code, message) pair — the wire codec's
  /// decode path. An OK code ignores the message (OK never allocates).
  static Status FromCode(StatusCode code, std::string msg) {
    return code == StatusCode::kOk ? OK() : Status(code, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  std::string msg_;
};

/// Result<T> holds either a value or an error Status. Modeled after
/// arrow::Result; ValueOrDie() aborts the process on error (tests only).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}        // NOLINT implicit
  Result(Status status) : data_(std::move(status)) {  // NOLINT implicit
    // An OK status carries no value; storing it in a Result is a bug.
    if (std::get<Status>(data_).ok()) {
      data_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(data_);
  }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

/// Propagate a non-OK status to the caller.
#define GEOTP_RETURN_NOT_OK(expr)          \
  do {                                     \
    ::geotp::Status _st = (expr);          \
    if (!_st.ok()) return _st;             \
  } while (0)

/// Assign the value of a Result to `lhs`, or propagate its error status.
#define GEOTP_ASSIGN_OR_RETURN(lhs, rexpr)       \
  auto GEOTP_CONCAT_(_res_, __LINE__) = (rexpr); \
  if (!GEOTP_CONCAT_(_res_, __LINE__).ok())      \
    return GEOTP_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(GEOTP_CONCAT_(_res_, __LINE__)).value()

#define GEOTP_CONCAT_(a, b) GEOTP_CONCAT_IMPL_(a, b)
#define GEOTP_CONCAT_IMPL_(a, b) a##b

}  // namespace geotp

#endif  // GEOTP_COMMON_STATUS_H_
