// Block-level threaded-code execution tier for the EPIC simulator (the
// third tier above the interpretive and decode-cache paths; docs/SIM.md
// "Execution tiers"). Hot straight-line runs of DecodedBundles —
// promoted by per-entry-pc profile counters while executing on the
// decode tier — are lowered once into a flat, pre-resolved micro-op
// stream: per-op dispatch kinds specialised on opcode and operand
// shape, literals materialised as constant-pool registers so operand
// fetch is one unconditional array load, Mdes latencies and §3.2 port
// verdicts pre-folded, per-bundle statistics collapsed into static
// deltas on the bundle-end micro-op, scoreboard reads that an in-block
// writer proves ready dropped, and stall-free bundle boundaries folded
// away (docs/SIM.md "Execution tiers"). A tight
// switch dispatch loop (exec_block) then executes whole blocks without
// re-deriving any static fact and with all loop state in registers.
//
// Correctness contract: bit-identical SimStats, OUT stream,
// architectural state and fault text/interleaving against the other
// two tiers (tests/test_sim_fastpath.cpp proves it differentially).
// The tier records nothing per bundle: a run with a SimTimeline
// attached executes on the decode tier instead.
// Bundles the lowering cannot prove exact — intra-bundle hazards,
// custom-op slots (user semantics may throw), unsupported ops, operand
// shapes outside the fast kinds — fall back per bundle to
// step_decoded(). Memory operations stay direct behind probe
// micro-ops: the probe re-checks the access before any state changes
// and bails to the per-bundle fallback when the access would fault, so
// the fault path replays with the decode tier's exact interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "core/isa.hpp"
#include "sim/decode.hpp"

namespace cepic {

/// Maximum bundles lowered into one threaded block. Not a knob:
/// exec_block's 16-bit stat lanes are only overflow-safe for blocks of
/// at most 64 bundles (static_assert in threaded.cpp).
constexpr unsigned kThreadedMaxBlock = 64;

/// Dispatch code of one micro-op. Operand fields are indices into the
/// simulator's extended GPR array (architectural registers, then the
/// write sink, then the constant pool — see EpicSimulator::gprs_), so
/// fetch and write-back are branchless; remaining shape bits (guarded
/// vs not, branch-target file) ride in MicroOp::flags. Opcode
/// specialisations that need exact-width arithmetic are only emitted at
/// datapath width 32.
enum class UopCode : std::uint8_t {
  // -- bundle prologue --
  kBeginFast,   ///< no scoreboard sources, no port demand: issue = cycle
  kBegin,       ///< scoreboard max + constant port stall (port_const)
  kBegin2,      ///< kBegin for <= 2 GPR-only scoreboard sources: the
                ///< register indices ride in a/d, no slice scan
  kBeginPorts,  ///< scoreboard max + dynamic §3.2 fixed point (fwd on)
  kProbeWord,   ///< bail to uops[e] unless a word access at a+b succeeds
  kProbeByte,   ///< bail to uops[e] unless a byte access at a+b succeeds
  kGuard,       ///< predicate prefix: skip the next micro-op (one slot)
                ///< when preds[pred] is 0, else commit it (a/b carry the
                ///< mem read/write stat deltas). Op handlers themselves
                ///< never test guards.
  // -- operations (direct execution) --
  kAluGen,  ///< eval_alu (div/rem/min/max/abs/shra, narrow datapaths)
  kAluAdd,
  kAluSub,
  kAluMul,
  kAluAnd,
  kAluOr,
  kAluXor,
  kAluShl,
  kAluShrl,
  kAluMov,
  kCmpp,  ///< eval_cmpp; always writes d and e (absent dest -> pred sink)
  kOut,
  kLdW,
  kLdWS,
  kLdB,
  kLdBU,
  kStW,  ///< deferred into the pending-store buffer (flushed at end)
  kStB,
  // -- probing memory forms (the probe fused into the op itself) --
  // Emitted instead of a standalone probe + plain op when a mid-bundle
  // bail still replays exactly: the op checks the access and bails to
  // uops[e] itself, saving one dispatch and a duplicate address
  // computation per memory op. Eligibility (compile_block): no OUT, no
  // guarded op, and no op writing a register the bundle reads — then
  // re-running the already-executed prefix through step_decoded is
  // unobservable (same sources, same results, pending stores dropped).
  kLdWP,
  kLdBP,
  kLdBUP,
  kStWP,
  kStBP,
  kPbr,
  kBr,  ///< BRU/BRR/BRL; target mode + link write via flags
  kBrct,
  kBrcf,
  kHalt,
  // -- bundle epilogue --
  kEndFall,  ///< no control-flow op in the bundle: static fall-through
  kEnd,      ///< full halt/branch epilogue (may exit the block)
  // -- fused pairs (one dispatch, two micro-op slots) --
  kEndFallBegin,       ///< kEndFall + the next bundle's kBegin
  kEndFallBegin2,      ///< kEndFall + the next bundle's kBegin2
  kEndFallBeginFast,   ///< kEndFall + the next bundle's kBeginFast
  kEndFallBeginPorts,  ///< kEndFall + the next bundle's kBeginPorts
  // -- block control --
  kFallback,  ///< run this bundle via step_decoded(), then goto uops[e]
  kExit,      ///< leave the block (pc_ already advanced)
};

// MicroOp::flags bits. One namespace across codes; each code documents
// which bits it reads.
inline constexpr std::uint8_t kFlagS2Lit = 2;       ///< kBrct/kBrcf: b is a
                                                    ///< literal condition
inline constexpr std::uint8_t kFlagGuarded = 4;     ///< pred guards the op
inline constexpr std::uint8_t kFlagTargetGpr = 16;  ///< kBr* target indexes
                                                    ///< gprs_ (incl. pool),
                                                    ///< not btrs_
inline constexpr std::uint8_t kFlagLink = 32;       ///< kBr writes link (BRL)
inline constexpr std::uint8_t kFlagContention = 128;  ///< kEnd*: mem steals

/// Number of dispatch codes (kExit is last); the dispatch table in
/// sim/threaded.cpp static_asserts against this.
inline constexpr unsigned kNumUopCodes =
    static_cast<unsigned>(UopCode::kExit) + 1;

/// One pre-resolved micro-op, packed to 32 bytes (two per cache line)
/// so blocks stream through the dispatch loop cheaply. Operand fields
/// a/b are extended-GPR indices (literals resolve to constant-pool
/// slots at lowering time); d is the destination index, with absent
/// destinations redirected to the write sink so stores never branch.
/// Micro-ops that need no operands reuse a/b/d for other payload:
///  * kBegin/kBeginPorts: a = scoreboard slice offset in
///    ThreadedBlock::sb, b = packed slice lengths
///    (gprs | preds<<8 | btrs<<16 | port_reads<<24), d = port-read
///    slice offset, aux = constant port stall (kBegin) or static
///    write-port demand (kBeginPorts);
///  * kEnd/kEndFall: d|e<<32 = the four counter deltas pre-expanded to
///    16-bit lanes (nops | executed<<16 | committed<<32 |
///    mem_reads<<48) so the dispatch loop folds them with one add,
///    a|h<<32 = the width-histogram delta in 9-bit lanes (one per
///    bundle width), b = mem_writes | bundles<<16. An end closing a
///    folded run of n bundles (docs/SIM.md "Execution tiers") carries
///    the run's summed deltas and advances the clock to issue + n.
struct MicroOp {
  UopCode code = UopCode::kExit;
  std::uint8_t flags = 0;
  std::uint8_t lat = 0;    ///< result latency (pre-folded from Mdes)
  std::uint8_t aux = 0;    ///< kBegin*: port payload (see above)
  std::uint16_t pred = 0;  ///< guard predicate (kFlagGuarded)
  Op op = Op::NOP;         ///< kAluGen/kCmpp: original opcode
  std::uint32_t a = 0;     ///< src1 reg/lit, or packed payload
  std::uint32_t b = 0;     ///< src2 reg/lit / link, or packed payload
  std::uint32_t d = 0;     ///< destination register index
  std::uint32_t e = 0;     ///< dest2 / bail/continue micro-op index
  std::uint32_t pc = 0;    ///< bundle pc this micro-op belongs to
  std::uint32_t h = 0;     ///< kEnd*: histogram delta, high word
};
static_assert(sizeof(MicroOp) <= 32, "MicroOp must stay two-per-line");

/// One compiled block: a maximal straight-line run of bundles starting
/// at entry_pc. Conditional-branch fall-through stays inside the block;
/// a taken branch or halt exits it.
struct ThreadedBlock {
  std::uint32_t entry_pc = 0;
  std::uint32_t len_bundles = 0;
  /// Conservative bound on how far the clock can advance in one pass
  /// through the block. run_threaded() only enters the block when
  /// max_cycles - cycle exceeds this, so no in-block micro-op needs the
  /// per-bundle cycle-limit check; near the limit execution single-steps
  /// on the decode tier, whose check (and fault text) is exact.
  std::uint64_t max_advance = 0;
  std::vector<MicroOp> uops;
  /// Flattened scoreboard + port-read register indices, sliced per
  /// begin micro-op (offset/length fields there): one contiguous scan
  /// instead of three vector hops per bundle.
  std::vector<std::uint32_t> sb;
};

/// Per-program threaded-tier state: promotion counters and compiled
/// blocks. Pure functions of the (immutable) program + options, so —
/// like the decode cache — blocks survive reset() and repeated runs
/// reuse them deterministically.
struct ThreadedCache {
  static constexpr std::int32_t kCold = -1;

  std::vector<std::int32_t> block_at;  ///< pc -> blocks index, or kCold
  std::vector<std::uint32_t> hot;      ///< per-pc promotion counters
  std::vector<ThreadedBlock> blocks;

  /// Deduplicated literal operand values, shared by every block. Pool
  /// entry i is materialised once in the register-file tail (extended
  /// GPR index num_gprs + 1 + i) when its block is compiled; reset()
  /// leaves the tail intact, so operand fetch never distinguishes
  /// literal from register. The zero literal needs no slot: it resolves
  /// to r0, which is pinned to 0.
  std::vector<std::uint32_t> pool;

  /// Worst-case clock advance of one bundle (scoreboard + port stalls +
  /// bubbles + contention), pre-computed over the whole program.
  std::uint64_t advance_bound = 0;

  /// compile_block's scratch: the last in-block writer of each
  /// register (GPRs, then predicates, then BTRs). Entries are stamped
  /// with the compile that wrote them, so the table is allocated once
  /// and never cleared between blocks.
  struct Writer {
    std::uint64_t stamp = 0;     ///< compiles value of the writing compile
    std::uint32_t ordinal = 0;   ///< bundle ordinal within the block
    std::uint32_t latency = 0;   ///< largest latency of its writes there
    bool guarded = false;        ///< no unguarded op of that bundle writes it
  };
  std::vector<Writer> writers;
  std::uint64_t compiles = 0;

  // Tier telemetry (tests/test_sim_threaded.cpp, cepic-sim
  // --metrics-json).
  std::uint64_t block_entries = 0;  ///< block entries (incl. in-loop
                                    ///< block-to-block transitions)
  std::uint64_t fallback_bundles = 0;   ///< per-bundle decode-tier falls
  std::uint64_t cold_steps = 0;         ///< decode-tier steps pre-promotion
  std::uint64_t elided_sources = 0;  ///< scoreboard reads compiled away
  std::uint64_t folded_bundles = 0;  ///< bundle boundaries compiled away

  bool enabled() const { return !block_at.empty(); }
};

}  // namespace cepic
