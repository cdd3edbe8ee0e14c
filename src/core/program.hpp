// Program: the unit the assembler produces and the simulator executes.
// Code is a flat sequence of instructions grouped into fixed-width
// MultiOps of `issue_width` slots (NOP-padded by the assembler, paper
// §4.2); branch targets are bundle addresses. A program also carries the
// initial data-memory image, symbol tables, and the configuration it was
// assembled for (binaries are configuration-specific, as on the real
// processor).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/instruction.hpp"

namespace cepic {

/// Base byte address of the data segment in data memory. Address 0 is
/// kept unmapped so stray null-based accesses fault loudly.
inline constexpr std::uint32_t kDataBase = 64;

struct Program {
  ProcessorConfig config;
  /// Flat code; size is always a multiple of config.issue_width.
  std::vector<Instruction> code;
  /// Initial data image, loaded at kDataBase.
  std::vector<std::uint8_t> data;
  /// Entry bundle address.
  std::uint32_t entry_bundle = 0;
  /// Label -> bundle address (kept for disassembly and debugging).
  std::map<std::string, std::uint32_t> code_symbols;
  /// Global name -> absolute byte address in data memory.
  std::map<std::string, std::uint32_t> data_symbols;

  std::size_t bundle_count() const {
    return config.issue_width == 0 ? 0 : code.size() / config.issue_width;
  }

  /// The instructions of bundle `addr`.
  std::span<const Instruction> bundle(std::uint32_t addr) const;

  /// Append one bundle; `ops` must contain at most issue_width entries
  /// and is NOP-padded. Returns the new bundle's address.
  std::uint32_t append_bundle(std::span<const Instruction> ops);

  /// Encode all instructions to raw 64-bit words (validates each).
  /// Binary persistence lives in serial/serial.hpp
  /// (serial::encode_program / decode_program — the CEPX container).
  std::vector<std::uint64_t> encode_code() const;

  bool operator==(const Program&) const = default;
};

/// "bundle B slot S: <message>" for the first non-NOP operation with a
/// register index past the end of its file (a DefectKind::RegRange from
/// check_instruction); empty when every index is in range. The
/// simulator refuses such a program at construction, and the static
/// cycle predictor predicts that fault with the same text.
std::string register_range_fault(const Program& program);

}  // namespace cepic
