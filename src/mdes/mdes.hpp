// Machine description (the HMDES role from the paper, §4.1): a queryable
// resource/latency model of one processor customisation, generated from
// the ProcessorConfig and handed to the scheduler. "By modifying the
// appropriate entries in the machine description file during
// customisation, the compiler is able to support our design, without the
// need for recompiling the compiler itself" — correspondingly, Mdes can
// be emitted to and re-parsed from a textual description file.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/custom.hpp"
#include "core/isa.hpp"

namespace cepic {

/// "ALU", "CMPU", "LSU", "BRU" ("none" for FuClass::None).
const char* fu_name(FuClass fu);

class Mdes {
public:
  /// Build from a configuration; custom-op latencies are taken from
  /// `custom` when provided.
  explicit Mdes(const ProcessorConfig& cfg,
                const CustomOpTable* custom = nullptr);

  /// Number of functional units of a class (Alu = N, others 1; None = 0).
  unsigned units(FuClass fu) const;

  /// Result latency of an operation in cycles.
  unsigned latency(Op op) const;

  /// Operations per MultiOp.
  unsigned issue_width() const { return issue_width_; }

  /// Register read+write port operations available per cycle (paper §3.2).
  unsigned reg_port_budget() const { return reg_port_budget_; }

  /// Whether the register file controller forwards last-cycle results.
  bool forwarding() const { return forwarding_; }

  /// Is the operation implemented on this customisation (feature trims,
  /// enabled custom slots)?
  bool op_supported(Op op) const;

  /// Emit as a machine-description file (HMDES-lite syntax).
  std::string to_text() const;

  /// Parse a machine-description file produced by to_text(). Throws
  /// ConfigError on malformed input.
  static Mdes from_text(std::string_view text);

private:
  Mdes() = default;

  std::array<unsigned, 5> units_{};                 // by FuClass
  std::array<unsigned, kNumOps> latency_{};         // by Op
  std::array<std::uint8_t, kNumOps> supported_{};   // by Op
  unsigned issue_width_ = 4;
  unsigned reg_port_budget_ = 8;
  bool forwarding_ = true;
};

}  // namespace cepic
