// Parser for the IR's textual form — the exact inverse of the printers
// in print.cpp, so `parse_module(to_string(m))` reproduces `m` (up to
// next_vreg, which the text does not carry and is reconstructed as
// max-used-vreg + 1) and `to_string(parse_module(text)) == text` for
// printer-produced text. Only the tests call it, to pin that round
// trip; the pipeline store keeps IR as a CEPX binary (src/serial).
#pragma once

#include <string_view>

#include "ir/ir.hpp"

namespace cepic::ir {

/// Parse a printed Module. Throws CompileError with a line number on
/// malformed input.
Module parse_module(std::string_view text);

}  // namespace cepic::ir
