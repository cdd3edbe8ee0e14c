// Three-way differential validation of the simulator's execution tiers
// (docs/SIM.md "Execution tiers"): the interpretive decode-every-cycle
// reference, the pre-decoded fast path (sim/decode.hpp) and the
// block-level threaded-code tier (sim/threaded.hpp). For the same
// program and SimOptions all tiers must produce bit-identical SimStats
// (cycles and every stall counter, the bundle-width histogram), the
// same OUT stream, the same final architectural state (registers, pc,
// memory image) and the same fault messages — across compiled
// workloads on a codegen x simulation-only configuration grid, across
// the fuzz corpus of random programs, and across the error paths. The
// threaded tier runs twice: with the default promotion threshold
// (blocks compile mid-run) and with threshold 1 (everything compiles
// on first touch), so both the cold decode-tier path and the compiled
// blocks are exercised on every comparison.
#include <gtest/gtest.h>

#include "pipeline/pipeline.hpp"
#include "sim/simulator.hpp"
#include "support/bits.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace cepic {
namespace {

using namespace testutil;

/// Everything observable about one simulation, for exact comparison.
struct Observed {
  std::string error;  ///< SimError text; empty when the run halted
  bool halted = false;
  SimStats stats;
  std::vector<std::uint32_t> output;
  std::uint32_t pc = 0;
  std::vector<std::uint32_t> gprs;
  std::vector<std::uint32_t> preds;
  std::vector<std::uint32_t> btrs;
  std::vector<std::uint8_t> memory;
  std::string trace;  ///< text trace; empty unless traced
};

/// With `trace`, a SimTimeline capped at 512 bundles is attached and its
/// text rendering kept; the threaded tier then runs on the decode tier.
Observed observe(const Program& program, const CustomOpTable& custom,
                 SimOptions options, ExecTier tier,
                 unsigned hot_threshold = 8, bool trace = false) {
  options.exec_tier = tier;
  options.threaded_hot_threshold = hot_threshold;
  EpicSimulator sim(program, custom, options);
  SimTimeline timeline(sim.config(), 512);
  if (trace) sim.set_timeline(&timeline);
  Observed o;
  try {
    sim.run();
    // Decode cache and threaded blocks must survive reset(): run the
    // program again and keep the second run's results (they must equal
    // the first's — the interpretive side establishes that
    // independently).
    sim.reset();
    sim.run();
  } catch (const SimError& e) {
    o.error = e.what();
  }
  // The run-level marker reports the tier that executed: Threaded is
  // pinned to Decode exactly when a timeline is attached.
  const ExecTier ran =
      trace && tier == ExecTier::Threaded ? ExecTier::Decode : tier;
  EXPECT_EQ(sim.stats().exec_tier, ran);
  EXPECT_EQ(sim.stats().timeline_pinned, ran != tier);
  o.halted = sim.halted();
  o.stats = sim.stats();
  o.output = sim.output();
  o.pc = sim.pc();
  const ProcessorConfig& cfg = sim.program().config;
  for (unsigned i = 0; i < cfg.num_gprs; ++i) o.gprs.push_back(sim.gpr(i));
  for (unsigned i = 0; i < cfg.num_preds; ++i) {
    o.preds.push_back(sim.pred(i) ? 1 : 0);
  }
  for (unsigned i = 0; i < cfg.num_btrs; ++i) o.btrs.push_back(sim.btr(i));
  const auto raw = sim.memory().raw();
  o.memory.assign(raw.begin(), raw.end());
  if (trace) o.trace = timeline.to_text(sim.program());
  return o;
}

void expect_matches(const Observed& got, const Observed& want,
                    const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.halted, want.halted);
  EXPECT_EQ(got.stats, want.stats)
      << "cycles " << got.stats.cycles << " vs " << want.stats.cycles
      << ", scoreboard " << got.stats.stall_scoreboard << " vs "
      << want.stats.stall_scoreboard << ", ports "
      << got.stats.stall_reg_ports << " vs " << want.stats.stall_reg_ports;
  EXPECT_EQ(got.output, want.output);
  EXPECT_EQ(got.pc, want.pc);
  EXPECT_EQ(got.gprs, want.gprs);
  EXPECT_EQ(got.preds, want.preds);
  EXPECT_EQ(got.btrs, want.btrs);
  EXPECT_EQ(got.memory == want.memory, true) << "final memory images differ";
  EXPECT_EQ(got.trace, want.trace);
}

void expect_identical(const Program& program, const CustomOpTable& custom,
                      const SimOptions& options, bool trace = false) {
  const Observed interp =
      observe(program, custom, options, ExecTier::Interp, 8, trace);
  expect_matches(observe(program, custom, options, ExecTier::Decode, 8, trace),
                 interp, "decode vs interp");
  expect_matches(
      observe(program, custom, options, ExecTier::Threaded, 8, trace), interp,
      "threaded(hot=8) vs interp");
  expect_matches(
      observe(program, custom, options, ExecTier::Threaded,
              /*hot_threshold=*/1, trace),
      interp, "threaded(hot=1, all blocks compiled) vs interp");
}

// ---- compiled workloads across the configuration grid ----------------

TEST(SimFastPath, WorkloadAcrossCodegenAndSimGrid) {
  // Codegen-relevant axes (each compiles separately) crossed with
  // simulation-only axes (re-stamped onto the same Program, exactly as
  // pipeline::run_batch does).
  const workloads::Workload w = workloads::make_dct(8);
  for (const unsigned alus : {1u, 4u}) {
    for (const bool forwarding : {false, true}) {
      for (const unsigned ports : {4u, 8u}) {
        ProcessorConfig cfg;
        cfg.num_alus = alus;
        cfg.forwarding = forwarding;
        cfg.reg_port_budget = ports;
        const auto compiled = pipeline::compile_once(w.minic_source, cfg);
        for (const unsigned stages : {2u, 4u}) {
          for (const bool contention : {false, true}) {
            SCOPED_TRACE(cat("alus=", alus, " fwd=", forwarding,
                             " ports=", ports, " stages=", stages,
                             " contention=", contention));
            Program program = compiled;
            program.config.pipeline_stages = stages;
            program.config.unified_memory_contention = contention;
            expect_identical(program, {}, SimOptions{});
            // And the default (threaded) tier still computes the right
            // answer.
            EpicSimulator sim(program);
            sim.run();
            EXPECT_EQ(sim.output(), w.expected_output);
          }
        }
      }
    }
  }
}

TEST(SimFastPath, MoreWorkloadsOnTightAndDefaultConfigs) {
  const std::vector<workloads::Workload> ws = {workloads::make_sha(8),
                                               workloads::make_dijkstra(8)};
  std::vector<ProcessorConfig> cfgs(2);
  cfgs[1].num_alus = 1;
  cfgs[1].forwarding = false;
  cfgs[1].reg_port_budget = 4;
  cfgs[1].unified_memory_contention = true;
  for (const auto& w : ws) {
    for (const ProcessorConfig& cfg : cfgs) {
      SCOPED_TRACE(cat(w.name, " on ", cfg.summary()));
      const auto compiled = pipeline::compile_once(w.minic_source, cfg);
      expect_identical(compiled, {}, SimOptions{});
    }
  }
}

TEST(SimFastPath, TraceOutputIsIdentical) {
  // The text trace renders the timeline on every tier; a traced
  // threaded run is pinned to the decode tier.
  const workloads::Workload w = workloads::make_dct(8);
  const auto compiled =
      pipeline::compile_once(w.minic_source, ProcessorConfig{});
  const Observed traced =
      observe(compiled, {}, SimOptions{}, ExecTier::Interp, 8, true);
  EXPECT_NE(traced.trace.find("[timeline truncated at 512 bundles]"),
            std::string::npos);
  expect_identical(compiled, {}, SimOptions{}, /*trace=*/true);
}

// ---- the fuzz corpus -------------------------------------------------

TEST(SimFastPath, FuzzProgramsMatchAcrossTheConfigGrid) {
  // Same generators and config grid as the round-trip fuzz suite; these
  // programs exercise every op class, predication, raw custom ops and
  // the fault paths (cycle limit, off-the-end pc after a nullified
  // guarded HALT).
  for (const NamedConfig& nc : fuzz_configs()) {
    const std::uint64_t seed = 0xFA57ull ^ fnv1a64(nc.name);
    SCOPED_TRACE(cat("config=", nc.name, " seed=0x", seed));
    Prng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const Program p = random_program(rng, nc.cfg);
      SCOPED_TRACE(cat("iteration ", i));
      SimOptions options;
      options.max_cycles = 5'000;
      expect_identical(p, CustomOpTable::for_names(nc.cfg.custom_ops),
                       options);
    }
  }
}

// ---- fault-path equivalence ------------------------------------------

TEST(SimFastPath, UnsupportedOpFaultsIdenticallyOnFirstTouch) {
  // Build a DIV under a config that has it, then trim the feature
  // post-build (the assembler would reject it otherwise). All tiers
  // must fault with the same message — and only when the op is reached,
  // not at construction (the threaded tier routes such bundles to its
  // per-bundle fallback).
  ProcessorConfig cfg;
  Program p = make_program(
      cfg, {{mov(1, I(6))},
            {op3(Op::DIV, 2, R(1), I(2))},
            {halt()}});
  p.config.alu.has_div = false;
  expect_identical(p, {}, SimOptions{});
  const Observed threaded =
      observe(p, {}, SimOptions{}, ExecTier::Threaded, /*hot_threshold=*/1);
  EXPECT_NE(
      threaded.error.find("`div` not implemented on this customisation"),
      std::string::npos)
      << threaded.error;

  // A never-executed unsupported op must not fault at all.
  Program skip = make_program(
      cfg, {{pbr(1, 3)},
            {bru(1)},
            {op3(Op::DIV, 2, R(1), I(2))},  // jumped over
            {halt()}});
  skip.config.alu.has_div = false;
  expect_identical(skip, {}, SimOptions{});
  EXPECT_TRUE(observe(skip, {}, SimOptions{}, ExecTier::Threaded,
                      /*hot_threshold=*/1)
                  .error.empty());
}

TEST(SimFastPath, CycleLimitFaultsIdenticallyAndNamesTheBundle) {
  SimOptions options;
  options.max_cycles = 100;
  const Program loop = make_program(ProcessorConfig{},
                                    {{pbr(1, 0)}, {bru(1)}, {halt()}});
  expect_identical(loop, {}, options);
  const Observed threaded =
      observe(loop, {}, options, ExecTier::Threaded, /*hot_threshold=*/1);
  EXPECT_NE(threaded.error.find("cycle limit exceeded (100 cycles)"),
            std::string::npos)
      << threaded.error;
  EXPECT_NE(threaded.error.find("at bundle"), std::string::npos)
      << threaded.error;
}

TEST(SimFastPath, BranchPastEndFaultsIdentically) {
  const Program p = make_program(ProcessorConfig{},
                                 {{pbr(1, 9)}, {bru(1)}, {halt()}});
  expect_identical(p, {}, SimOptions{});
  const Observed threaded =
      observe(p, {}, SimOptions{}, ExecTier::Threaded, /*hot_threshold=*/1);
  EXPECT_NE(threaded.error.find("branch to bundle 9 past end of program"),
            std::string::npos)
      << threaded.error;
}

TEST(SimFastPath, PcPastEndFaultsIdentically) {
  // No HALT: execution runs off the end of the program.
  const Program p = make_program(ProcessorConfig{}, {{mov(1, I(1))}});
  expect_identical(p, {}, SimOptions{});
  const Observed threaded =
      observe(p, {}, SimOptions{}, ExecTier::Threaded, /*hot_threshold=*/1);
  EXPECT_NE(threaded.error.find("past end of program"), std::string::npos)
      << threaded.error;
}

TEST(SimFastPath, OutOfRangeRegisterRejectedAtConstruction) {
  // make_program does not validate register indices. Every tier refuses
  // the program when the simulator is built, before any bundle runs,
  // with the text core's check_instruction gives the defect.
  ProcessorConfig cfg;
  cfg.num_gprs = 16;
  const Program p = make_program(cfg, {{mov(40, I(1))}, {halt()}});
  for (const ExecTier tier :
       {ExecTier::Interp, ExecTier::Decode, ExecTier::Threaded}) {
    SCOPED_TRACE(to_string(tier));
    SimOptions options;
    options.exec_tier = tier;
    options.threaded_hot_threshold = 1;
    try {
      EpicSimulator sim(p, {}, options);
      ADD_FAILURE() << "simulator accepted r40 on a 16-GPR machine";
    } catch (const SimError& e) {
      EXPECT_STREQ(e.what(),
                   "bundle 0 slot 0: dest1: r40 exceeds the 16-register file");
    }
  }
}

TEST(SimFastPath, ImageOfAnotherCodegenSliceRejected) {
  // A shared image is decoded against its own config. A run config that
  // differs outside the simulation-only fields would execute wrongly
  // decoded bundles, so every tier refuses it and names the field.
  ProcessorConfig cfg;
  cfg.custom_ops = {"popc"};
  const auto image = std::make_shared<const SimImage>(
      make_program(cfg, {{mov(1, I(1))}, {halt()}}), CustomOpTable{});
  ProcessorConfig width = cfg;
  width.datapath_width = 16;
  ProcessorConfig latency = cfg;
  latency.load_latency = 3;
  ProcessorConfig custom = cfg;
  custom.custom_ops = {"rotr"};
  const std::pair<ProcessorConfig, const char*> cases[] = {
      {width,
       "simulator image mismatch: config has `datapath_width = 16`, image "
       "was built for `datapath_width = 32`"},
      {latency,
       "simulator image mismatch: config has `load_latency = 3`, image was "
       "built for `load_latency = 2`"},
      {custom,
       "simulator image mismatch: config has `custom_ops = rotr`, image was "
       "built for `custom_ops = popc`"},
  };
  for (const ExecTier tier :
       {ExecTier::Interp, ExecTier::Decode, ExecTier::Threaded}) {
    SCOPED_TRACE(to_string(tier));
    SimOptions options;
    options.exec_tier = tier;
    for (const auto& [config, message] : cases) {
      try {
        EpicSimulator sim(image, config, options);
        ADD_FAILURE() << "simulator accepted a mismatched image";
      } catch (const SimError& e) {
        EXPECT_STREQ(e.what(), message);
      }
    }
    // The simulation-only fields are free to differ.
    ProcessorConfig variant = cfg;
    variant.pipeline_stages = 4;
    variant.unified_memory_contention = true;
    EpicSimulator sim(image, variant, options);
    EXPECT_EQ(sim.config(), variant);
    EXPECT_EQ(sim.program().config, cfg);
  }
}

TEST(SimFastPath, SharedImageMatchesPrivateImagesAcrossSimOnlyVariants) {
  // One image built with an empty custom-op table installs the builtin
  // popc itself; every simulation-only variant run on it is identical
  // to a simulator that builds its own image, on every tier.
  ProcessorConfig cfg;
  cfg.custom_ops = {"popc"};
  const Program p = make_program(
      cfg,
      {{mov(1, I(0)), mov(2, I(16)), mov(3, I(0)), pbr(1, 1)},
       {add(1, R(1), I(1)), op3(Op::CUSTOM0, 3, R(1), R(3)), ldw(4, 0, 64)},
       {cmpp(Op::CMPP_LT, 1, 2, R(1), R(2)), stw(3, 0, 64)},
       {brct(1, 1)},
       {out(R(3)), halt()}});
  const auto image = std::make_shared<const SimImage>(p, CustomOpTable{});
  for (const ExecTier tier :
       {ExecTier::Interp, ExecTier::Decode, ExecTier::Threaded}) {
    SCOPED_TRACE(to_string(tier));
    SimOptions options;
    options.exec_tier = tier;
    options.threaded_hot_threshold = 1;
    for (const unsigned stages : {2u, 3u}) {
      for (const bool contention : {false, true}) {
        Program own = p;
        own.config.pipeline_stages = stages;
        own.config.unified_memory_contention = contention;
        EpicSimulator shared(image, own.config, options);
        EpicSimulator alone(own, {}, options);
        shared.run();
        alone.run();
        EXPECT_EQ(shared.stats(), alone.stats()) << stages << contention;
        EXPECT_EQ(shared.output(), alone.output()) << stages << contention;
        EXPECT_EQ(shared.gpr(3), alone.gpr(3)) << stages << contention;
      }
    }
  }
}

TEST(SimFastPath, StatsEqualityOperatorSeesEveryCounter) {
  SimStats a;
  SimStats b;
  EXPECT_TRUE(a == b);
  b.stall_reg_ports = 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.bundle_width_hist[3] = 1;
  EXPECT_FALSE(a == b);
  // The tier markers record which tier ran — the one thing the tiers
  // legitimately disagree on — so equality must ignore them.
  b = a;
  b.exec_tier = ExecTier::Threaded;
  b.timeline_pinned = true;
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace cepic
