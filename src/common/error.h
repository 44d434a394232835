// Error handling for the ammb library.
//
// Following the C++ Core Guidelines (E.2, I.5), precondition violations
// at public API boundaries throw; internal invariants use AMMB_ASSERT
// which also throws (so that tests can observe violations) but is worded
// as an internal bug.
#pragma once

#include <stdexcept>
#include <string>

namespace ammb {

/// Exception thrown on contract violations at ammb API boundaries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throwRequire(const char* cond, const char* file, int line,
                               const std::string& msg);
[[noreturn]] void throwAssert(const char* cond, const char* file, int line);
}  // namespace detail

}  // namespace ammb

/// Precondition check at an API boundary; throws ammb::Error with a
/// caller-facing message when `cond` is false.
#define AMMB_REQUIRE(cond, msg)                                         \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::ammb::detail::throwRequire(#cond, __FILE__, __LINE__, (msg));   \
    }                                                                   \
  } while (false)

/// Internal invariant check; a failure indicates a bug in ammb itself.
#define AMMB_ASSERT(cond)                                               \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::ammb::detail::throwAssert(#cond, __FILE__, __LINE__);           \
    }                                                                   \
  } while (false)

/// Debug-only invariant check for hot paths whose inputs are validated
/// at build time (a finalized graph::Graph's neighbor spans, epoch
/// indices).  Compiles to nothing under NDEBUG so per-call adjacency
/// queries stay branch-free in release builds; builds without NDEBUG
/// keep the throwing AMMB_ASSERT.  CMake's Release and RelWithDebInfo
/// both define NDEBUG; CI's ASan+UBSan job drops it so these checks
/// run there.
#ifdef NDEBUG
#define AMMB_DCHECK(cond) \
  do {                    \
  } while (false)
#else
#define AMMB_DCHECK(cond) AMMB_ASSERT(cond)
#endif
