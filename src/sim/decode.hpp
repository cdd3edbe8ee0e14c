// Pre-decoded program representation for the EPIC simulator's fast
// path. The interpretive step() re-derived static facts — OpInfo
// lookups, operand register-file classes, Mdes latencies and support
// verdicts, §3.2 port read/write classification — on every simulated
// cycle. decode_program() lowers each bundle once, when a SimImage is
// built (sim/simulator.hpp), into a DecodedBundle that bakes all of it
// in, so the per-cycle loop touches only architectural state. The
// decoded bundles read only the codegen slice of the configuration
// (datapath_width and the Mdes), never pipeline_stages or
// unified_memory_contention, which is what lets one image serve every
// simulation-only variant of a Program. Behaviour is bit-identical to
// the interpretive path (tests/test_sim_fastpath.cpp proves it
// differentially). Every register index is in range by the time a
// program is decoded: SimImage refuses any program with an
// out-of-range index first (register_range_fault).
//
// The decoded form is flat: every bundle's ops sit in one array and
// every bundle's register lists in another, and a DecodedBundle is a set
// of spans into them. Decoding a program costs a handful of allocations
// however many bundles it has (docs/SIM.md "Simulator images").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/isa.hpp"
#include "core/program.hpp"
#include "mdes/mdes.hpp"

namespace cepic {

/// Flat dispatch kind: the FuClass x Op nesting of the interpretive
/// execute stage collapsed into one switch.
enum class ExecKind : std::uint8_t {
  Alu,   ///< every ALU-class op, including MOV/ABS and custom slots
  Cmpp,  ///< compare-to-predicate (dual destination) and PSET
  Out,
  LdW,
  LdWS,
  LdB,
  LdBU,
  StW,
  StB,
  Pbr,
  Bru,
  Brct,
  Brcf,
  Brl,
  Brr,
  Halt,
  /// Op the Mdes rejects for this customisation: faults on first touch
  /// with the interpretive path's exact error text.
  Unsupported,
};

/// How a source operand is fetched at execute time. Literals are
/// pre-masked to the datapath width at decode (except the PBR target,
/// which the interpretive path uses raw).
enum class SrcKind : std::uint8_t { Zero, Lit, Gpr, Pred, Btr };

struct DecodedSrc {
  SrcKind kind = SrcKind::Zero;
  std::uint32_t reg = 0;    ///< register index when kind is a file
  std::uint32_t value = 0;  ///< pre-extended literal when kind == Lit
};

struct DecodedOp {
  ExecKind kind = ExecKind::Halt;
  /// NOP slots between the previous decoded op and this one (stats
  /// interleaving matches the interpretive path even on fault paths).
  std::uint8_t nops_before = 0;
  bool has_dest2 = false;
  std::uint32_t pred = 0;
  std::uint32_t dest1 = 0;
  std::uint32_t dest2 = 0;
  DecodedSrc src1;
  DecodedSrc src2;
  unsigned latency = 1;       ///< Mdes result latency, resolved at decode
  Op op = Op::NOP;            ///< original opcode (ALU eval, errors)
  const OpInfo* info = nullptr;
};

/// One bundle's view into its DecodedProgram's arrays.
struct DecodedBundle {
  std::uint8_t nops_trailing = 0;  ///< NOP slots after the last decoded op
  /// Static GPR write-port demand of the bundle (§3.2).
  unsigned write_ports = 0;
  std::span<const DecodedOp> ops;  ///< non-NOP slots, in slot order

  // Scoreboard source lists (deduplicated; index 0 entries dropped —
  // they are always ready).
  std::span<const std::uint32_t> sb_gpr;
  std::span<const std::uint32_t> sb_pred;
  std::span<const std::uint32_t> sb_btr;

  /// GPR port-read candidates for the §3.2 budget fixed point:
  /// register indices (duplicates preserved — each read costs a port)
  /// that need a port unless forwarding satisfies them.
  std::span<const std::uint32_t> port_reads;
};

/// Every bundle of a program, decoded. The bundles' spans point into
/// `ops` and `regs`, so it is move-only: a move keeps the arrays'
/// buffers, a copy would leave the spans pointing at the source.
struct DecodedProgram {
  DecodedProgram() = default;
  DecodedProgram(const DecodedProgram&) = delete;
  DecodedProgram& operator=(const DecodedProgram&) = delete;
  DecodedProgram(DecodedProgram&&) = default;
  DecodedProgram& operator=(DecodedProgram&&) = default;

  std::vector<DecodedBundle> bundles;  ///< one per bundle
  std::vector<DecodedOp> ops;          ///< every bundle's ops, in order
  /// Every bundle's sb_gpr, sb_pred, sb_btr and port_reads, in order.
  std::vector<std::uint32_t> regs;
};

/// Lower every bundle of `program` against `mdes`.
DecodedProgram decode_program(const Program& program, const Mdes& mdes);

}  // namespace cepic
