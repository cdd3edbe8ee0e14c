// The CEPIC assembler (paper §4.2): maps EPIC assembly onto machine code
// for a *specific processor customisation*. Like the paper's tool it
// needs no recompilation to re-target — hand it a different
// configuration (or configuration file) and it packs MultiOps to the new
// issue width, checks functional-unit constraints from the machine
// description, pads with no-ops and re-encodes.
//
// This module is the one owner of the assembly syntax. A Listing is the
// assembler's model of a program: MultiOps whose literals may still be
// `@symbol`s, before NOP padding. parse() reads text into a Listing,
// to_text() prints one and encode() packs one into a Program. The
// backend builds its Listing directly (backend::compile_ir_to_listing),
// so a compiled Program never passes through the text.
//
// Syntax:
//   // comment (to end of line)
//   .data                          switch to the data section
//   .global <name> <words> [= w0 w1 ...]   reserve/initialise a global
//   .text                          switch to the code section
//   .entry <label>                 program entry bundle
//   <label>:                       bundle label (several may stack)
//   (pN) op d, s1, s2 ; op ... ;;  ops separated by `;`, `;;` ends the
//                                  MultiOp (NOP-padded to issue width)
// Operands: rN (GPR), pN (predicate), bN (BTR), #imm (decimal/hex
// literal), @name (label -> bundle address, or data symbol -> byte
// address).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/program.hpp"

namespace cepic::asmtool {

/// `line` fields give the source line (0 when not parsed from text).
struct Listing {
  struct Op {
    Instruction inst;
    std::string src1_sym;  ///< `@name` standing for src1's literal
    std::string src2_sym;  ///< `@name` standing for src2's literal
    int line = 0;
  };
  struct Global {
    std::string name;
    std::uint32_t size_words = 0;
    std::vector<std::uint32_t> init;  ///< leading words; the rest are 0
    int line = 0;
  };
  struct Label {
    std::string name;
    std::uint32_t bundle = 0;  ///< index into `bundles`
    std::string comment;       ///< printed as a `// ` line before it
    int line = 0;
  };

  std::string comment;          ///< printed as the first `// ` line
  std::vector<Global> globals;  ///< laid out in order from kDataBase
  std::string entry;            ///< entry label; empty = bundle 0
  int entry_line = 0;
  std::vector<Label> labels;    ///< in bundle order
  std::vector<std::vector<Op>> bundles;  ///< MultiOps, unpadded
};

/// Read assembly text. Throws AsmError with a line number on a syntax
/// error or a number that does not fit its 32-bit field.
Listing parse(std::string_view source);

/// Pack a Listing for a configuration: lay out the data, check issue
/// width and functional units, pad with NOPs, resolve symbols, validate
/// each instruction and branch target. Throws AsmError with the line of
/// the offending op, label or global; a global that does not fit below
/// `mem_top` (the simulated memory size, as in ir::layout_globals) is
/// rejected before its part of the data image is allocated.
Program encode(const Listing& listing, const ProcessorConfig& config,
               std::uint64_t mem_top = std::uint64_t{1} << 22);

/// Print a Listing as assembly that parse() reads back.
std::string to_text(const Listing& listing);

/// encode(parse(source), config, mem_top). Retargeting takes only
/// another configuration, e.g. ProcessorConfig::from_text of a
/// configuration file ("configuration header file" in the paper).
Program assemble(std::string_view source, const ProcessorConfig& config,
                 std::uint64_t mem_top = std::uint64_t{1} << 22);

/// Print a Program's Listing: labels from the symbol tables, branch
/// targets as numbers, NOP slots dropped (an all-NOP bundle prints as
/// `nop`). assemble(disassemble(p)) keeps the encoded words
/// bit-identical.
std::string disassemble(const Program& program);

}  // namespace cepic::asmtool
