// Error hierarchy and internal-invariant checking for the CEPIC toolchain.
//
// Policy (see DESIGN.md §5): user-facing failures (bad source program, bad
// assembly, bad configuration, simulated-program faults) are reported as
// exceptions derived from cepic::Error so that tools can catch and print
// them; violations of internal invariants abort via CEPIC_CHECK, which
// throws InternalError carrying the failing expression and location.
#pragma once

#include <stdexcept>
#include <string>

namespace cepic {

/// Root of all CEPIC-reported errors.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid processor configuration (parameter out of range, inconsistent
/// instruction format, ...).
class ConfigError : public Error {
public:
  using Error::Error;
};

/// Error in a MiniC source program (lex/parse/semantic), with location;
/// line 0 means the error has none (e.g. a data layout that does not
/// fit in memory).
class CompileError : public Error {
public:
  CompileError(const std::string& what, int line, int col)
      : Error(line == 0 ? what
                        : "line " + std::to_string(line) + ":" +
                              std::to_string(col) + ": " + what),
        line_(line), col_(col) {}

  int line() const { return line_; }
  int col() const { return col_; }

private:
  int line_ = 0;
  int col_ = 0;
};

/// Error in textual assembly input.
class AsmError : public Error {
public:
  AsmError(const std::string& what, int line)
      : Error("asm line " + std::to_string(line) + ": " + what), line_(line) {}

  int line() const { return line_; }

private:
  int line_ = 0;
};

/// Fault raised by a simulated program (bad memory access, unencodable
/// instruction, runaway execution past the cycle limit, ...).
class SimError : public Error {
public:
  using Error::Error;
};

/// Broken internal invariant — indicates a bug in CEPIC itself.
class InternalError : public Error {
public:
  using Error::Error;
};

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::string s = "internal check failed: ";
  s += expr;
  s += " at ";
  s += file;
  s += ":";
  s += std::to_string(line);
  if (!msg.empty()) {
    s += ": ";
    s += msg;
  }
  throw InternalError(s);
}

}  // namespace cepic

/// Check an internal invariant; throws cepic::InternalError on failure.
#define CEPIC_CHECK(cond, msg)                                        \
  do {                                                                \
    if (!(cond)) ::cepic::check_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)
