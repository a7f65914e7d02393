#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

// Runtime contracts for the Wren/Virtuoso stack.
//
// Measurement systems live or die on the validity of their invariants: a
// silently negative residual capacity or a non-monotonic event queue corrupts
// every number downstream. These macros make violations fail loudly at the
// exact line, in every build type:
//
//   VW_REQUIRE(cond, ...)     precondition on the caller (always on)
//   VW_ENSURE(cond, ...)      postcondition we promise to callers (always on)
//   VW_ASSERT(cond, ...)      internal invariant (always on, cheap tier)
//   VW_AUDIT(cond, ...)       expensive invariant (whole-container scans);
//                             compiled out with -DVW_ENABLE_AUDIT=0 and
//                             runtime-gated by contracts::set_audit_enabled()
//   VW_UNREACHABLE(...)       marks code that must never execute
//
// Trailing arguments after the condition are streamed into the failure
// message (operator<< concatenation), and are only evaluated when the
// contract fires:
//
//   VW_REQUIRE(at >= now_, "time went backwards: at=", at, " now=", now_);
//
// On violation the installed failure handler receives a ContractViolation.
// The default handler throws ContractError (derived from
// std::invalid_argument, so existing EXPECT_THROW(..., std::invalid_argument)
// and EXPECT_THROW(..., std::logic_error) expectations hold). Tests can
// install their own handler — via ScopedContractHandler — to count
// violations, re-throw a sentinel, or abort for death tests. A handler that
// returns normally suppresses the violation and execution continues (only
// sensible in tests); VW_UNREACHABLE aborts regardless.

namespace vw::contracts {

enum class Kind : std::uint8_t {
  kRequire,
  kEnsure,
  kAssert,
  kAudit,
  kUnreachable,
};

/// Human-readable macro name for a contract kind ("VW_REQUIRE", ...).
std::string_view kind_name(Kind kind);

/// Everything a failure handler learns about a violated contract.
struct ContractViolation {
  Kind kind = Kind::kAssert;
  std::string_view condition;  ///< stringified condition text
  std::string_view file;
  int line = 0;
  std::string message;  ///< formatted trailing arguments ("" when none)
};

/// Thrown by the default failure handler.
class ContractError : public std::invalid_argument {
 public:
  ContractError(const ContractViolation& violation, const std::string& what);

  Kind kind() const { return kind_; }
  std::string_view file() const { return file_; }
  int line() const { return line_; }

 private:
  Kind kind_;
  std::string_view file_;  ///< points at the __FILE__ literal (static storage)
  int line_;
};

using FailureHandler = void (*)(const ContractViolation&);

/// Throws ContractError with a "file:line: VW_X(cond) failed: msg" message.
[[noreturn]] void default_failure_handler(const ContractViolation& violation);

/// Install a failure handler; returns the previous one. Never null — passing
/// nullptr restores the default handler.
FailureHandler set_failure_handler(FailureHandler handler);
FailureHandler failure_handler();

/// RAII handler swap for tests.
class ScopedContractHandler {
 public:
  explicit ScopedContractHandler(FailureHandler handler)
      : previous_(set_failure_handler(handler)) {}
  ~ScopedContractHandler() { set_failure_handler(previous_); }
  ScopedContractHandler(const ScopedContractHandler&) = delete;
  ScopedContractHandler& operator=(const ScopedContractHandler&) = delete;

 private:
  FailureHandler previous_;
};

/// Runtime gate for the VW_AUDIT tier (default on). Audit conditions are not
/// evaluated while disabled, so O(n) scans cost nothing on hot paths.
void set_audit_enabled(bool enabled);
bool audit_enabled();

/// Invoke the failure handler for a violated contract. Returns only if the
/// handler returned (a test handler tolerating the violation).
void fail(Kind kind, std::string_view condition, std::string_view file, int line,
          std::string message);

/// VW_UNREACHABLE backstop: runs the handler, then aborts if it returns.
[[noreturn]] void fail_unreachable(std::string_view file, int line, std::string message);

/// Build the failure message from the macro's trailing arguments.
inline std::string format_message() { return {}; }

template <typename... Args>
std::string format_message(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

}  // namespace vw::contracts

#define VW_CONTRACT_CHECK_(kind, cond, ...)                                      \
  do {                                                                           \
    if (!(cond)) [[unlikely]] {                                                  \
      ::vw::contracts::fail((kind), #cond, __FILE__, __LINE__,                   \
                            ::vw::contracts::format_message(__VA_ARGS__));       \
    }                                                                            \
  } while (false)

#define VW_REQUIRE(cond, ...) \
  VW_CONTRACT_CHECK_(::vw::contracts::Kind::kRequire, cond __VA_OPT__(, ) __VA_ARGS__)
#define VW_ENSURE(cond, ...) \
  VW_CONTRACT_CHECK_(::vw::contracts::Kind::kEnsure, cond __VA_OPT__(, ) __VA_ARGS__)
#define VW_ASSERT(cond, ...) \
  VW_CONTRACT_CHECK_(::vw::contracts::Kind::kAssert, cond __VA_OPT__(, ) __VA_ARGS__)

#define VW_UNREACHABLE(...)                                 \
  ::vw::contracts::fail_unreachable(__FILE__, __LINE__,     \
                                    ::vw::contracts::format_message(__VA_ARGS__))

// Expensive tier: compiled out entirely with -DVW_ENABLE_AUDIT=0, otherwise
// runtime-gated so the condition is only evaluated while auditing is on.
#ifndef VW_ENABLE_AUDIT
#define VW_ENABLE_AUDIT 1
#endif

#if VW_ENABLE_AUDIT
#define VW_AUDIT(cond, ...)                                                 \
  do {                                                                      \
    if (::vw::contracts::audit_enabled()) {                                 \
      VW_CONTRACT_CHECK_(::vw::contracts::Kind::kAudit,                     \
                         cond __VA_OPT__(, ) __VA_ARGS__);                  \
    }                                                                       \
  } while (false)
#else
#define VW_AUDIT(cond, ...) \
  do {                      \
  } while (false)
#endif
