// Status / Result error model for privmark.
//
// The core library does not throw exceptions on data-dependent failures;
// every fallible operation returns a Status (or a Result<T> carrying either a
// value or a Status), in the style of Apache Arrow / RocksDB.

#ifndef PRIVMARK_COMMON_STATUS_H_
#define PRIVMARK_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace privmark {

/// \brief Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  /// A caller-supplied argument is malformed or out of contract.
  kInvalidArgument,
  /// A lookup (column name, node label, value) found nothing.
  kKeyError,
  /// A numeric index or value is outside its valid range.
  kOutOfRange,
  /// The requested combination of options is not implemented.
  kNotImplemented,
  /// An entity that must be unique already exists.
  kAlreadyExists,
  /// File or stream I/O failed.
  kIOError,
  /// The data cannot satisfy the k-anonymity spec within the usage metrics.
  kUnbinnable,
  /// An enumeration or buffer exceeded its configured capacity.
  kCapacityExceeded,
  /// A cryptographic or ownership verification failed.
  kVerificationFailed,
  /// An operation's deadline expired before it completed.
  kDeadlineExceeded,
  /// The system is over capacity; retry later (retry_after_ms() carries
  /// a typed hint when the shedding layer can estimate one).
  kResourceExhausted,
};

/// \brief Returns a stable human-readable name for a StatusCode.
const char* StatusCodeToString(StatusCode code);

/// \brief Success-or-error outcome of an operation.
///
/// Cheap to copy in the OK case (no allocation). Construct error statuses via
/// the static factories, e.g. `Status::InvalidArgument("k must be >= 2")`.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unbinnable(std::string msg) {
    return Status(StatusCode::kUnbinnable, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status VerificationFailed(std::string msg) {
    return Status(StatusCode::kVerificationFailed, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief Typed backpressure hint: milliseconds to wait before
  /// retrying the failed operation. -1 = no hint. Shedding paths
  /// (the service queue depth cap) attach it to ResourceExhausted
  /// statuses via WithRetryAfterMs; callers must never parse message
  /// text for it.
  int64_t retry_after_ms() const { return retry_after_ms_; }

  /// \brief Returns a copy of this status carrying the hint.
  Status WithRetryAfterMs(int64_t retry_after_ms) const {
    Status status = *this;
    status.retry_after_ms_ = retry_after_ms;
    return status;
  }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_ &&
           retry_after_ms_ == other.retry_after_ms_;
  }

 private:
  StatusCode code_;
  std::string message_;
  int64_t retry_after_ms_ = -1;
};

/// \brief Value-or-Status. Access the value only after checking ok().
template <typename T>
class Result {
 public:
  /// Implicit from a value (success).
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error Status. Must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : payload_(std::move(status)) {
    assert(!std::get<Status>(payload_).ok() &&
           "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// \brief The error status; Status::OK() if this Result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(payload_);
  }

  const T& ValueOrDie() const& {
    assert(ok() && "ValueOrDie called on error Result");
    return std::get<T>(payload_);
  }
  T& ValueOrDie() & {
    assert(ok() && "ValueOrDie called on error Result");
    return std::get<T>(payload_);
  }
  T&& ValueOrDie() && {
    assert(ok() && "ValueOrDie called on error Result");
    return std::move(std::get<T>(payload_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  /// `*std::move(result)` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace privmark

/// Evaluates an expression returning Status; propagates errors to the caller.
#define PRIVMARK_RETURN_NOT_OK(expr)            \
  do {                                          \
    ::privmark::Status st_ = (expr);            \
    if (!st_.ok()) return st_;                  \
  } while (false)

#define PRIVMARK_CONCAT_IMPL(x, y) x##y
#define PRIVMARK_CONCAT(x, y) PRIVMARK_CONCAT_IMPL(x, y)

/// Evaluates an expression returning Result<T>; on success assigns the value
/// to `lhs` (which may be a declaration), on error propagates the Status.
#define PRIVMARK_ASSIGN_OR_RETURN(lhs, rexpr)                             \
  PRIVMARK_ASSIGN_OR_RETURN_IMPL(PRIVMARK_CONCAT(result_, __LINE__), lhs, \
                                 rexpr)

#define PRIVMARK_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                   \
  if (!result_name.ok()) return result_name.status();           \
  lhs = std::move(result_name).ValueOrDie()

#endif  // PRIVMARK_COMMON_STATUS_H_
