// planetmarket: runtime checking utilities.
//
// PM_CHECK is used for conditions that indicate a programming error or a
// violated invariant; it throws pm::CheckFailure (derived from
// std::logic_error) carrying the failing expression and location. Expected,
// recoverable failures (e.g. a bid that fails validation) are reported
// through status-style return values instead, never through these macros.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace pm {

/// Raised by PM_CHECK on a violated invariant. Deriving from
/// std::logic_error signals "bug in the calling code", not an environmental
/// failure.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : CheckFailure(what, what) {}
  CheckFailure(const std::string& what, std::string reason)
      : std::logic_error(what), reason_(std::move(reason)) {}

  /// what() without the source location: stable across builds, so it can
  /// go into exported artifacts.
  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

namespace internal {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  const std::string reason = std::string("PM_CHECK failed: ") + expr;
  const std::string detail = msg.empty() ? "" : " — " + msg;
  std::ostringstream os;
  os << reason << " at " << file << ":" << line << detail;
  throw CheckFailure(os.str(), reason + detail);
}

}  // namespace internal
}  // namespace pm

/// Aborts (by throwing pm::CheckFailure) when `cond` is false.
#define PM_CHECK(cond)                                                \
  do {                                                                \
    if (!(cond))                                                      \
      ::pm::internal::CheckFailed(#cond, __FILE__, __LINE__, "");     \
  } while (0)

/// PM_CHECK with an extra streamed message, e.g.
///   PM_CHECK_MSG(i < n, "index " << i << " out of range " << n);
#define PM_CHECK_MSG(cond, stream_expr)                               \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream pm_check_os_;                                \
      pm_check_os_ << stream_expr;                                    \
      ::pm::internal::CheckFailed(#cond, __FILE__, __LINE__,          \
                                  pm_check_os_.str());                \
    }                                                                 \
  } while (0)
