#pragma once
/// \file error.hpp
/// Error handling primitives for the MOSAIC library.
///
/// All precondition and invariant failures throw mosaic::Error so that
/// callers (examples, benches, tests) can report a readable message instead
/// of crashing. The MOSAIC_CHECK macro is used for conditions that depend on
/// user input; MOSAIC_ASSERT for internal invariants (still active in
/// release builds -- this is an EDA tool, silent corruption is worse than a
/// small branch cost).

#include <sstream>
#include <stdexcept>
#include <string>

namespace mosaic {

/// Base exception for all errors raised by the MOSAIC library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a user-supplied argument or configuration is invalid.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Raised when a file is not what its reader expects: truncated, trailing
/// bytes, or a field that fails its check (support/binary_io.hpp).
class FormatError : public InvalidArgument {
 public:
  explicit FormatError(const std::string& what) : InvalidArgument(what) {}
};

/// Raised when an internal invariant is violated (a library bug).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throwCheckFailure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " -- " << msg;
  throw InvalidArgument(os.str());
}

[[noreturn]] inline void throwAssertFailure(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  std::ostringstream os;
  os << "internal invariant violated: " << expr << " at " << file << ":"
     << line;
  if (!msg.empty()) os << " -- " << msg;
  throw InternalError(os.str());
}
}  // namespace detail

}  // namespace mosaic

/// Validate a user-facing precondition; throws mosaic::InvalidArgument.
#define MOSAIC_CHECK(expr, msg)                                        \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::mosaic::detail::throwCheckFailure(#expr, __FILE__, __LINE__,   \
                                          (std::ostringstream{} << msg) \
                                              .str());                 \
    }                                                                  \
  } while (false)

/// Validate an internal invariant; throws mosaic::InternalError.
#define MOSAIC_ASSERT(expr, msg)                                        \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::mosaic::detail::throwAssertFailure(#expr, __FILE__, __LINE__,   \
                                           (std::ostringstream{} << msg) \
                                               .str());                 \
    }                                                                   \
  } while (false)
