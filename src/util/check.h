// Lightweight contract checks used across nyqmon.
//
// NYQMON_CHECK is for precondition violations by the *caller*: it throws
// std::invalid_argument so misuse is reportable and testable.
// NYQMON_ENSURE is for internal invariants: it throws std::logic_error,
// signalling a bug in nyqmon itself.
//
// Either exception's what() holds the check's expression and message; its
// source location travels beside it (CheckLocation), not in the text, so an
// error a server answers with names no file or line of its build. Logs add
// the location.
#pragma once

#include <stdexcept>
#include <string>

namespace nyqmon {

/// Where a failed check sits in the source.
class CheckLocation {
 public:
  CheckLocation(const char* file, int line) : file_(file), line_(line) {}
  std::string where() const {
    return std::string(file_) + ":" + std::to_string(line_);
  }

 private:
  const char* file_;
  int line_;
};

/// What a failed check throws: `Base` (std::invalid_argument or
/// std::logic_error) plus the check's location.
template <class Base>
class CheckFailure : public Base, public CheckLocation {
 public:
  CheckFailure(const std::string& what, const char* file, int line)
      : Base(what), CheckLocation(file, line) {}
};

[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  throw CheckFailure<std::invalid_argument>(
      std::string("precondition failed: ") + expr +
          (msg.empty() ? "" : (": " + msg)),
      file, line);
}

[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line, const std::string& msg) {
  throw CheckFailure<std::logic_error>(
      std::string("invariant violated: ") + expr +
          (msg.empty() ? "" : (": " + msg)),
      file, line);
}

}  // namespace nyqmon

#define NYQMON_CHECK(expr)                                            \
  do {                                                                \
    if (!(expr)) ::nyqmon::throw_precondition(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define NYQMON_CHECK_MSG(expr, msg)                                       \
  do {                                                                    \
    if (!(expr)) ::nyqmon::throw_precondition(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#define NYQMON_ENSURE(expr)                                            \
  do {                                                                 \
    if (!(expr)) ::nyqmon::throw_invariant(#expr, __FILE__, __LINE__, ""); \
  } while (0)
