// Status and Result<T>: exception-free error propagation in the style of
// Arrow / RocksDB. All fallible public APIs in statcube return one of these.

#ifndef STATCUBE_COMMON_STATUS_H_
#define STATCUBE_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace statcube {

/// Coarse error taxonomy. Keep this small: callers branch on "ok or not" far
/// more often than on the specific code.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNotSummarizable,   ///< a summarization would violate summarizability
  kPrivacyRefused,    ///< privacy monitor refused to answer a query
  kUnimplemented,
  kInternal,
  kCancelled,          ///< query stopped by cooperative cancellation
  kDeadlineExceeded,   ///< query stopped by an expired deadline
};

/// Human-readable name of a status code (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Success-or-error value. Cheap to copy on the success path (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSummarizable(std::string msg) {
    return Status(StatusCode::kNotSummarizable, std::move(msg));
  }
  static Status PrivacyRefused(std::string msg) {
    return Status(StatusCode::kPrivacyRefused, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A value or an error. `ValueOrDie()` asserts success; use it only in tests
/// and examples, never in library code.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value, aborting with the error message on failure.
  T ValueOrDie() && {
    if (!ok()) {
      fprintf(stderr, "Result::ValueOrDie on error: %s\n",
              status_.ToString().c_str());
      abort();
    }
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// Moves the value out, as `std::optional` does: `*std::move(r)`.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define STATCUBE_RETURN_NOT_OK(expr)          \
  do {                                        \
    ::statcube::Status _st = (expr);          \
    if (!_st.ok()) return _st;                \
  } while (0)

/// Evaluates a Result expression, assigning its value to `lhs` or returning
/// the error. `lhs` must be a declaration or assignable expression.
#define STATCUBE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                   \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value();

#define STATCUBE_ASSIGN_OR_RETURN_CAT(a, b) a##b
#define STATCUBE_ASSIGN_OR_RETURN_NAME(a, b) STATCUBE_ASSIGN_OR_RETURN_CAT(a, b)

#define STATCUBE_ASSIGN_OR_RETURN(lhs, rexpr) \
  STATCUBE_ASSIGN_OR_RETURN_IMPL(             \
      STATCUBE_ASSIGN_OR_RETURN_NAME(_result_, __LINE__), lhs, rexpr)

}  // namespace statcube

#endif  // STATCUBE_COMMON_STATUS_H_
