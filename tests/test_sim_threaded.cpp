// Unit tests for the threaded-code execution tier's machinery itself —
// promotion thresholds, per-bundle fallback, block reuse across
// reset(), fault text, determinism — complementing the three-way
// differential suite (tests/test_sim_fastpath.cpp), which proves the
// tier's *results* bit-identical to the other tiers. Telemetry
// counters (ThreadedCache::block_entries / fallback_bundles /
// cold_steps) are observability-only: nothing here asserts an exact
// instruction-path count that an optimisation would legitimately
// change, only the structural facts the tier's contract promises. The
// static-timing cases are the exception: on tiny programs they pin
// exactly which reads a rule elides and which boundaries it folds.
#include <gtest/gtest.h>

#include "core/memory.hpp"
#include "core/program.hpp"
#include "sim/simulator.hpp"
#include "support/text.hpp"
#include "test_util.hpp"

namespace cepic {
namespace {

using namespace testutil;

/// A counted loop; bundle 1 heads the hot region, so it is the
/// promotion candidate. The cmpp reads the pre-increment r1 (MultiOp
/// reads happen before writes), so the body executes iters + 1 times:
/// one OUT per pass, final r1 == iters + 1.
Program counted_loop(unsigned iters) {
  return make_program(
      ProcessorConfig{},
      {{mov(1, I(0)), mov(2, I(static_cast<std::int32_t>(iters))), pbr(1, 1)},
       {add(1, R(1), I(1)), cmpp(Op::CMPP_LT, 1, 2, R(1), R(2))},
       {brct(1, 1), out(R(1))},
       {halt()}});
}

SimOptions threaded_options(unsigned hot_threshold) {
  SimOptions options;
  options.exec_tier = ExecTier::Threaded;
  options.threaded_hot_threshold = hot_threshold;
  return options;
}

TEST(SimThreaded, PromotionWaitsForTheHotThreshold) {
  const Program p = counted_loop(20);
  EpicSimulator sim(p, {}, threaded_options(8));
  sim.run();
  ASSERT_TRUE(sim.halted());
  const ThreadedCache& tc = sim.threaded_cache();
  ASSERT_TRUE(tc.enabled());
  // The loop head reached the threshold and compiled exactly one block;
  // the straight-line prologue (one arrival per run) never did.
  ASSERT_EQ(tc.blocks.size(), 1u);
  EXPECT_EQ(tc.blocks[0].entry_pc, 1u);
  EXPECT_EQ(tc.hot[1], 8u);  // stops counting once the block exists
  EXPECT_LT(tc.hot[0], 8u);
  EXPECT_GT(tc.cold_steps, 0u);   // pre-promotion decode-tier steps
  EXPECT_GT(tc.block_entries, 0u);
  // 21 passes of OUT either way (see counted_loop).
  EXPECT_EQ(sim.output().size(), 21u);
}

TEST(SimThreaded, ThresholdOneCompilesOnFirstTouch) {
  const Program p = counted_loop(20);
  EpicSimulator sim(p, {}, threaded_options(1));
  sim.run();
  ASSERT_TRUE(sim.halted());
  const ThreadedCache& tc = sim.threaded_cache();
  EXPECT_EQ(tc.cold_steps, 0u);
  EXPECT_GE(tc.blocks.size(), 1u);
  EXPECT_GT(tc.block_entries, 0u);
}

TEST(SimThreaded, ThresholdAboveArrivalCountNeverPromotes) {
  const Program p = counted_loop(20);
  EpicSimulator sim(p, {}, threaded_options(1000));
  sim.run();
  ASSERT_TRUE(sim.halted());
  const ThreadedCache& tc = sim.threaded_cache();
  EXPECT_TRUE(tc.blocks.empty());
  EXPECT_EQ(tc.block_entries, 0u);
  EXPECT_GT(tc.cold_steps, 0u);
  // The tier still computes the right answer on the decode path.
  EXPECT_EQ(sim.output().size(), 21u);
  EXPECT_EQ(sim.gpr(1), 21u);
}

TEST(SimThreaded, CustomOpBundlesFallBackPerBundleWithIdenticalResults) {
  // Custom-op semantics are user callbacks (they may throw), so the
  // lowering routes such bundles to the per-bundle fallback; the rest
  // of the loop still runs as compiled micro-ops.
  ProcessorConfig cfg;
  cfg.custom_ops = {"popc"};
  const Program p = make_program(
      cfg,
      {{mov(1, I(0)), mov(2, I(16)), mov(3, I(0)), pbr(1, 1)},
       {add(1, R(1), I(1)), op3(Op::CUSTOM0, 3, R(1), R(3))},
       {cmpp(Op::CMPP_LT, 1, 2, R(1), R(2))},
       {brct(1, 1)},
       {halt()}});
  const CustomOpTable custom = CustomOpTable::for_names(cfg.custom_ops);

  EpicSimulator threaded(p, custom, threaded_options(1));
  threaded.run();
  ASSERT_TRUE(threaded.halted());
  EXPECT_GT(threaded.threaded_cache().fallback_bundles, 0u);
  EXPECT_GT(threaded.threaded_cache().block_entries, 0u);

  SimOptions decode_options;
  decode_options.exec_tier = ExecTier::Decode;
  EpicSimulator decode(p, custom, decode_options);
  decode.run();
  EXPECT_EQ(threaded.stats(), decode.stats());
  EXPECT_EQ(threaded.output(), decode.output());
  for (unsigned i = 0; i < p.config.num_gprs; ++i) {
    EXPECT_EQ(threaded.gpr(i), decode.gpr(i)) << "gpr " << i;
  }
}

TEST(SimThreaded, BlocksSurviveResetAndAreReusedDeterministically) {
  // Blocks are pure functions of the (immutable) program + options,
  // exactly like the decode cache: reset() must not drop them, repeat
  // runs must reuse (not recompile) them, and the results must be
  // bit-identical run over run.
  const Program p = counted_loop(50);
  EpicSimulator sim(p, {}, threaded_options(4));
  sim.run();
  const SimStats first = sim.stats();
  const auto first_output = sim.output();
  const std::size_t compiled = sim.threaded_cache().blocks.size();
  const std::uint64_t entries = sim.threaded_cache().block_entries;
  const std::int32_t head_block = sim.threaded_cache().block_at[1];
  ASSERT_GT(compiled, 0u);
  ASSERT_GE(head_block, 0);

  for (int run = 0; run < 3; ++run) {
    sim.reset();
    sim.run();
    EXPECT_EQ(sim.stats(), first) << "run " << run;
    EXPECT_EQ(sim.output(), first_output) << "run " << run;
    // The loop-head block is reused, never dropped or recompiled. (The
    // promotion profile also survives, so later runs may promote
    // *additional* entry pcs — the count can grow, never shrink.)
    EXPECT_EQ(sim.threaded_cache().block_at[1], head_block)
        << "run " << run;
    EXPECT_GE(sim.threaded_cache().blocks.size(), compiled)
        << "run " << run;
  }
  // ...and the later runs entered the already-compiled blocks.
  EXPECT_GT(sim.threaded_cache().block_entries, entries);
}

TEST(SimThreaded, CycleLimitFaultNamesTheBundle) {
  // Blocks elide the per-bundle cycle-limit check; near the limit
  // execution must single-step the decode tier so the fault text (with
  // the faulting bundle pc) is exact.
  SimOptions options = threaded_options(1);
  options.max_cycles = 100;
  const Program loop =
      make_program(ProcessorConfig{}, {{pbr(1, 1)}, {bru(1)}, {halt()}});
  EpicSimulator sim(loop, {}, options);
  try {
    sim.run();
    FAIL() << "expected the cycle-limit fault";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle limit exceeded (100 cycles)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("at bundle 1"), std::string::npos) << what;
  }
  // Statistics at the fault match the decode tier's exactly (the last
  // successful bundle's branch bubbles may legally sit past the limit;
  // what matters is that both tiers stop at the same point).
  SimOptions decode_options = options;
  decode_options.exec_tier = ExecTier::Decode;
  EpicSimulator decode(loop, {}, decode_options);
  EXPECT_THROW(decode.run(), SimError);
  EXPECT_EQ(sim.stats(), decode.stats());
}

// --- static timing: elided scoreboard reads and folded boundaries ---

/// Observable end state of one run: stats, OUT stream, architectural
/// registers and the fault text ("" when the run halted).
struct RunState {
  SimStats stats;
  std::vector<std::uint32_t> output;
  std::vector<std::uint32_t> regs;  ///< GPRs, predicates, BTRs, pc
  std::string fault;
};

RunState run_to_end(EpicSimulator& sim) {
  RunState s;
  try {
    sim.run();
  } catch (const SimError& e) {
    s.fault = e.what();
  }
  const ProcessorConfig& cfg = sim.config();
  for (unsigned i = 0; i < cfg.num_gprs; ++i) s.regs.push_back(sim.gpr(i));
  for (unsigned i = 0; i < cfg.num_preds; ++i) s.regs.push_back(sim.pred(i));
  for (unsigned i = 0; i < cfg.num_btrs; ++i) s.regs.push_back(sim.btr(i));
  s.regs.push_back(sim.pc());
  s.stats = sim.stats();
  s.output = sim.output();
  return s;
}

/// Runs `p` on the threaded tier (every entry compiled on first touch)
/// and on the decode tier, expects identical observable behaviour, and
/// returns the threaded tier's cache for the caller's telemetry checks.
ThreadedCache expect_same_as_decode(const Program& p,
                                    std::uint64_t max_cycles = 1'000'000,
                                    const CustomOpTable& custom = {}) {
  SimOptions options = threaded_options(1);
  options.max_cycles = max_cycles;
  EpicSimulator threaded(p, custom, options);
  options.exec_tier = ExecTier::Decode;
  EpicSimulator decode(p, custom, options);
  const RunState t = run_to_end(threaded);
  const RunState d = run_to_end(decode);
  EXPECT_EQ(t.fault, d.fault);
  EXPECT_EQ(t.stats, d.stats);
  EXPECT_EQ(t.output, d.output);
  EXPECT_EQ(t.regs, d.regs);
  return threaded.threaded_cache();
}

Instruction ldws(std::uint32_t d, std::int32_t addr) {
  return Instruction::make(Op::LDWS, d, R(0), I(addr));
}

ProcessorConfig slow_loads(unsigned latency) {
  ProcessorConfig cfg;
  cfg.load_latency = latency;
  return cfg;
}

TEST(SimThreadedTiming, NullifiedGuardedWriterKeepsTheRead) {
  // r5's last writer before bundle 3 is a guarded MOV whose guard is
  // false: the 4-cycle load in bundle 1 still sets r5's ready time,
  // and bundle 3 must stall for it. Elided: r2 (bundle 1), p1 (bundle
  // 2), r6 (bundle 4) — never r5.
  const Program p = make_program(
      slow_loads(4),
      {{mov(2, I(64)), cmpp(Op::CMPP_LT, 1, 2, I(1), I(0))},
       {ldw(5, 2, 0)},
       {mov(5, I(7), 1)},
       {add(6, R(5), I(1))},
       {out(R(6)), halt()}});
  const ThreadedCache tc = expect_same_as_decode(p);
  EXPECT_EQ(tc.elided_sources, 3u);
}

TEST(SimThreadedTiming, LastWriterSetsTheReadyTime) {
  // WAW across bundles: the ready time is the *last* writer's. A short
  // writer after a long one proves the read ready (r5 at bundle 3); a
  // long writer after a short one does not (r7 at bundle 6 stalls).
  const Program p = make_program(
      slow_loads(4),
      {{mov(2, I(64))},
       {ldw(5, 2, 0)},
       {mov(5, I(9))},
       {add(6, R(5), I(1))},
       {mov(7, I(3))},
       {ldw(7, 2, 0)},
       {add(8, R(7), R(6))},
       {out(R(8)), halt()}});
  const ThreadedCache tc = expect_same_as_decode(p);
  // r2 twice, r5, r6, r8; r7 stays.
  EXPECT_EQ(tc.elided_sources, 5u);
}

TEST(SimThreadedTiming, TwoWritersInOneBundleTakeTheLargerLatency) {
  // A MOV and a 4-cycle load write r5 in one MultiOp (the load, later
  // in slot order, wins): bundle 2 stalls on it. In bundle 3 the order
  // is reversed, so r7 is ready after one cycle; the larger latency
  // still keeps the read (no stall either way).
  const Program p = make_program(
      slow_loads(4),
      {{mov(2, I(64))},
       {mov(5, I(1)), ldw(5, 2, 0)},
       {add(6, R(5), I(1))},
       {ldw(7, 2, 0), mov(7, I(2))},
       {add(8, R(7), R(6))},
       {out(R(8)), halt()}});
  const ThreadedCache tc = expect_same_as_decode(p);
  // r2 twice, r6, r8; r5 and r7 stay.
  EXPECT_EQ(tc.elided_sources, 4u);
}

TEST(SimThreadedTiming, FallbackBundleWritersCount) {
  // Bundle 1 runs through the per-bundle fallback (custom op); its
  // writes still set the last-writer table: r3 (1 cycle) is proven
  // ready in bundle 2, r5 (a 4-cycle load) is not and stalls — the
  // earlier one-cycle MOV of r5 must not stand in for it.
  ProcessorConfig cfg = slow_loads(4);
  cfg.custom_ops = {"popc"};
  const Program p = make_program(
      cfg,
      {{mov(5, I(1)), mov(2, I(64)), mov(1, I(7))},
       {op3(Op::CUSTOM0, 3, R(1), I(0)), ldw(5, 2, 0)},
       {add(6, R(3), R(5))},
       {out(R(6)), halt()}});
  const ThreadedCache tc = expect_same_as_decode(
      p, 1'000'000, CustomOpTable::for_names(cfg.custom_ops));
  EXPECT_GT(tc.fallback_bundles, 0u);
  EXPECT_EQ(tc.elided_sources, 2u);  // r3 and r6
}

/// A loop whose body is one folded run ending in its back-edge branch.
/// Bundles 2-4 join bundle 1's run; the speculative load in bundle 2
/// (offset 1) feeds the next iteration's bundle 1, which stalls on it,
/// so the baked latency must include the offset.
Program folded_loop() {
  return make_program(
      slow_loads(6),
      {{mov(1, I(0)), mov(6, I(0)), pbr(1, 1)},
       {add(1, R(1), I(1)), add(6, R(6), R(5))},
       {ldws(5, 64)},
       {cmpp(Op::CMPP_LT, 1, 2, R(1), I(20)), pbr(1, 1)},
       {brct(1, 1)},
       {out(R(6)), halt()}});
}

TEST(SimThreadedTiming, TakenBranchEndsAFoldedRun) {
  const ThreadedCache tc = expect_same_as_decode(folded_loop());
  // Two blocks (entries 0 and 1), each folding bundles 2, 3 and 4.
  EXPECT_EQ(tc.blocks.size(), 2u);
  EXPECT_EQ(tc.folded_bundles, 6u);
  EXPECT_GT(tc.block_entries, 1u);
}

TEST(SimThreadedTiming, BranchPastEndFaultEndsAFoldedRun) {
  // Bundles 0-3 fold into one run; its end branches past the program.
  // The fault leaves SimStats::cycles at the end of bundle 2 (issue +
  // 3 of the run), exactly as the decode tier's finish_step does.
  const Program p = make_program(
      ProcessorConfig{},
      {{mov(1, I(1)), pbr(1, 100)},
       {add(2, R(1), I(1))},
       {add(3, R(2), I(1))},
       {bru(1)}});
  const ThreadedCache tc = expect_same_as_decode(p);
  EXPECT_EQ(tc.folded_bundles, 3u);
}

TEST(SimThreadedTiming, CycleLimitFaultNextToAFoldedBlock) {
  // Every cycle budget up to past the loop's end: the blocks are only
  // entered with enough slack, then the decode tier single-steps to the
  // exact fault.
  std::uint64_t folded = 0;
  for (std::uint64_t limit = 4; limit <= 160; ++limit) {
    SCOPED_TRACE(cat("max_cycles ", limit));
    folded = std::max(folded,
                      expect_same_as_decode(folded_loop(), limit)
                          .folded_bundles);
  }
  EXPECT_GT(folded, 0u);
}

TEST(SimThreaded, DirtyPageResetZeroesExactlyWhatWasWritten) {
  // The threaded tier's probed direct stores (and everything else)
  // must leave DataMemory::reset() with a complete dirty map: memory
  // written through any accessor — checked stores, image loads, the
  // raw() escape hatch — reads back zero after reset().
  DataMemory mem(1u << 20);
  mem.write_word(kDataBase, 0xdeadbeefu);
  mem.write_byte(kDataBase + 4097, 0x5a);     // second page
  mem.raw()[(1u << 20) - 1] = 0x77;           // raw() poke, last page
  const std::vector<std::uint8_t> image{1, 2, 3, 4};
  mem.load_image(kDataBase + 64, image);
  mem.reset();
  for (std::size_t a = 0; a < mem.size(); ++a) {
    ASSERT_EQ(mem.raw()[a], 0u) << "address " << a;
  }
  // And reset() is repeatable: a fresh write after reset is tracked.
  mem.write_word(kDataBase + 8192, 42);
  EXPECT_EQ(mem.read_word(kDataBase + 8192), 42u);
  mem.reset();
  EXPECT_EQ(mem.read_word(kDataBase + 8192), 0u);
}

}  // namespace
}  // namespace cepic
