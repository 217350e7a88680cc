// Status and Result<T>: exception-free error handling for the StreamShare
// core, following the Arrow/RocksDB idiom. Every fallible operation in the
// library returns a Status (or a Result<T> when it also produces a value);
// exceptions are reserved for programming errors surfaced via assertions.

#ifndef STREAMSHARE_COMMON_STATUS_H_
#define STREAMSHARE_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace streamshare {

/// Machine-readable classification of an error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnsupported,
  kUnsatisfiable,
  kOverload,
  kInternal,
  /// A blocking operation exceeded its deadline (a socket timeout).
  kDeadlineExceeded,
  /// The peer endpoint is gone or was closed (connection shutdown).
  kUnavailable,
};

/// Returns the canonical lower-case name of a status code ("ok",
/// "invalid argument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// The one way a context string prefixes a message in this codebase:
/// "outer: inner", with empty sides collapsing to the other. Used by
/// Status::WithContext, Status::ToString, and the obs event log, so error
/// strings from the executor (and log lines that quote them) all chain
/// identically.
std::string JoinContext(std::string_view outer, std::string_view inner);

/// The outcome of a fallible operation: either OK or an error with a code
/// and a human-readable message. Cheap to copy in the OK case (a single
/// pointer), cheap to move always.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. `code` must not
  /// be kOk; use the default constructor for success.
  Status(StatusCode code, std::string message);

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Unsatisfiable(std::string msg) {
    return Status(StatusCode::kUnsatisfiable, std::move(msg));
  }
  static Status Overload(std::string msg) {
    return Status(StatusCode::kOverload, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  /// The error message; empty for OK statuses.
  const std::string& message() const;

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsParseError() const { return code() == StatusCode::kParseError; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const {
    return code() == StatusCode::kAlreadyExists;
  }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsUnsupported() const { return code() == StatusCode::kUnsupported; }
  bool IsUnsatisfiable() const {
    return code() == StatusCode::kUnsatisfiable;
  }
  bool IsOverload() const { return code() == StatusCode::kOverload; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsUnavailable() const {
    return code() == StatusCode::kUnavailable;
  }

  /// Renders "OK" or "<code>: <message>".
  std::string ToString() const;

  /// Prepends context to the error message; no-op on OK statuses.
  Status WithContext(std::string_view context) const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  // nullptr means OK; shared so copies stay cheap.
  std::shared_ptr<const State> state_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or an error Status. Mirrors arrow::Result.
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a failed result from a non-OK status. Aborts (in debug
  /// builds) if `status` is OK, since that would discard the value.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {
    assert(!std::get<Status>(repr_).ok() &&
           "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The error status; Status::Ok() if the result holds a value.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(repr_);
  }

  /// The contained value. Must only be called when ok().
  const T& value() const& {
    assert(ok() && "Result::value() on error result");
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok() && "Result::value() on error result");
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok() && "Result::value() on error result");
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this result is an error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace streamshare

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define SS_RETURN_IF_ERROR(expr)                              \
  do {                                                        \
    ::streamshare::Status _ss_status = (expr);                \
    if (!_ss_status.ok()) return _ss_status;                  \
  } while (false)

#define SS_CONCAT_IMPL(a, b) a##b
#define SS_CONCAT(a, b) SS_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a Result<T> expression); on error returns the status
/// from the enclosing function, otherwise moves the value into `lhs`.
#define SS_ASSIGN_OR_RETURN(lhs, rexpr)                            \
  SS_ASSIGN_OR_RETURN_IMPL(SS_CONCAT(_ss_result_, __LINE__), lhs,  \
                           rexpr)

#define SS_ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                             \
  if (!result.ok()) return result.status();          \
  lhs = std::move(result).value()

#endif  // STREAMSHARE_COMMON_STATUS_H_
