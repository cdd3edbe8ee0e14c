// The unified pipeline API (src/pipeline): the options partition
// (codegen_slice), content-addressed store hits that are byte-identical
// to cold compiles, artifact sharing across simulation-only config
// variants, store version isolation, the batch scheduler's determinism,
// and the zero-recompilation warm path that the CI cache-correctness
// job checks end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "asmtool/assembler.hpp"
#include "backend/backend.hpp"
#include "explore/explore.hpp"
#include "frontend/irgen.hpp"
#include "opt/opt.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/store.hpp"
#include "pipeline/version.hpp"
#include "serial/serial.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace cepic::pipeline {
namespace {

const char* kProg =
    "int main() {"
    "  int acc = 0;"
    "  for (int i = 1; i <= 30; i++) acc += i * i - (i << 1);"
    "  out(acc); return acc & 0xFF; }";

const char* kProg2 =
    "int main() {"
    "  int s = 1;"
    "  for (int i = 0; i < 12; i++) { s = s * 3 + i; out(s & 0xFFFF); }"
    "  return s & 0xFF; }";

/// A fresh, empty scratch directory under the gtest temp dir.
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pipeline_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A config that differs from `base` only in simulation-visible fields.
ProcessorConfig sim_only_variant(ProcessorConfig base) {
  base.pipeline_stages = base.pipeline_stages == 2 ? 3 : 2;
  base.unified_memory_contention = !base.unified_memory_contention;
  return base;
}

/// Whole-outcome equality: every field except from_result_cache, so a
/// counter the result cache drops fails the comparison.
void expect_same_outcome(RunOutcome got, const RunOutcome& want,
                         std::size_t i) {
  got.from_result_cache = want.from_result_cache;
  EXPECT_EQ(got, want) << i;
  // SimStats equality leaves out the execution-tier markers.
  EXPECT_EQ(got.exec_tier, want.exec_tier) << i;
  EXPECT_EQ(got.timeline_pinned, want.timeline_pinned) << i;
}

// ------------------------------------------------------- the partition

TEST(CodegenSlice, ResetsExactlyTheSimulationOnlyFields) {
  ProcessorConfig cfg;
  cfg.num_alus = 3;
  cfg.reg_port_budget = 6;
  cfg.forwarding = false;
  cfg.load_latency = 2;
  cfg.pipeline_stages = 4;
  cfg.unified_memory_contention = true;

  const ProcessorConfig slice = Service::codegen_slice(cfg);
  const ProcessorConfig defaults;
  // Simulation-only fields are reset...
  EXPECT_EQ(slice.pipeline_stages, defaults.pipeline_stages);
  EXPECT_EQ(slice.unified_memory_contention,
            defaults.unified_memory_contention);
  // ...and everything the backend reads is preserved.
  EXPECT_EQ(slice.num_alus, 3u);
  EXPECT_EQ(slice.reg_port_budget, 6u);
  EXPECT_FALSE(slice.forwarding);
  EXPECT_EQ(slice.load_latency, 2u);
}

TEST(CodegenSlice, SimOnlyVariantsShareOneSliceDistinctBackendFieldsDoNot) {
  ProcessorConfig a;
  a.num_alus = 2;
  const ProcessorConfig b = sim_only_variant(a);
  EXPECT_EQ(Service::codegen_slice(a).stable_hash(),
            Service::codegen_slice(b).stable_hash());

  ProcessorConfig c = a;
  c.forwarding = !c.forwarding;  // scheduler input => distinct slice
  EXPECT_NE(Service::codegen_slice(a).stable_hash(),
            Service::codegen_slice(c).stable_hash());
}

/// Pins the partition against the backend itself: compiling with the
/// full config (sim-only fields varied) must produce the same assembly
/// as compiling with the slice. If the backend ever starts reading
/// pipeline_stages or unified_memory_contention, this fails and
/// codegen_slice() must move the field to the keyed side.
TEST(CodegenSlice, BackendOutputIsInvariantUnderSimOnlyFields) {
  ProcessorConfig cfg;
  cfg.num_alus = 2;
  const ProcessorConfig variant = sim_only_variant(cfg);

  ir::Module module = minic::compile_to_ir(kProg);
  opt::optimize(module, {});
  const std::string direct =
      asmtool::to_text(backend::compile_ir_to_listing(module, variant, {}));
  const std::string sliced = asmtool::to_text(backend::compile_ir_to_listing(
      module, Service::codegen_slice(variant), {}));
  EXPECT_EQ(direct, sliced);

  Service service;
  EXPECT_EQ(service.compile_asm(kProg, variant), direct);
}

// ------------------------------------------------------------- sharing

TEST(Service, SimOnlyVariantsCompileOnceAndMatchTheDeprecatedDriver) {
  ProcessorConfig base;
  base.num_alus = 2;
  const std::vector<ProcessorConfig> configs{base, sim_only_variant(base)};

  Service service;
  const std::vector<RunOutcome> outcomes =
      service.run_batch({kProg}, configs);
  ASSERT_EQ(outcomes.size(), 2u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frontend_runs, 1u);
  EXPECT_EQ(stats.backend_runs, 1u);   // one compile serves both points
  EXPECT_EQ(stats.simulations, 2u);    // but each point is simulated

  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EpicSimulator sim = pipeline::run_once(kProg, configs[i]);
    EXPECT_EQ(outcomes[i].cycles, sim.stats().cycles) << i;
    EXPECT_EQ(outcomes[i].output_hash, fnv1a64_words(sim.output())) << i;
    EXPECT_EQ(outcomes[i].ret, sim.gpr(3)) << i;
  }
  // The variant changes simulated timing, so sharing the compiled
  // program must not have collapsed the simulations.
  EXPECT_NE(outcomes[0].cycles, outcomes[1].cycles);
}

TEST(Service, FrontendRunsOnceAcrossAluConfigs) {
  Service service;
  for (unsigned alus = 1; alus <= 4; ++alus) {
    ProcessorConfig cfg;
    cfg.num_alus = alus;
    cfg.issue_width = alus;
    (void)service.compile_program(kProg, cfg);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frontend_runs, 1u);
  EXPECT_EQ(stats.backend_runs, 4u);  // each ALU count is real codegen
}

TEST(Service, ColdProgramCompilesWithoutAssemblyText) {
  // compile_program encodes the backend's Listing directly: no assembly
  // text is printed or stored on the way.
  Service service;
  (void)service.compile_program(kProg, {});
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.backend_runs, 1u);
  EXPECT_EQ(stats.store.assembly.puts, 0u);
  EXPECT_EQ(stats.store.program.puts, 1u);
}

TEST(Service, CompileProgramUsesTheSimulatedMemoryForTheStackTop) {
  // One stack-top rule: the Program compile_program hands out is the one
  // run() simulates, and it runs on a simulator with the Service's own
  // (non-default) memory size.
  Options options;
  options.sim.mem_size = std::size_t{1} << 20;
  Service service(options);
  const Program program = service.compile_program(kProg, {});
  const EpicSimulator ran = service.run(kProg, {});
  EXPECT_EQ(serial::encode_program(program),
            serial::encode_program(ran.program()));

  EpicSimulator sim(program, {}, options.sim);
  ASSERT_NO_THROW(sim.run());
  EXPECT_TRUE(sim.halted());
  EXPECT_EQ(sim.output(), ran.output());
  EXPECT_EQ(sim.gpr(3), ran.gpr(3));
  EXPECT_EQ(service.stats().backend_runs, 1u);  // one artifact, one key
}

TEST(Service, GlobalsAreBoundedByTheSimulatedMemory) {
  // A 5 MiB global: too big for the default 4 MiB memory, fine in 16 MiB.
  // Compiling, running and IR-linting all follow the Service's memory;
  // the IR lint (keyed without it) accepts anything the 32-bit address
  // space holds.
  const char* big =
      "int g[1310720];\n"
      "int main() { g[1310719] = 7; out(g[1310719]); return 0; }";
  Options options;
  options.sim.mem_size = std::size_t{1} << 24;
  Service service(options);
  EXPECT_NO_THROW(service.compile_program(big, {}));
  const EpicSimulator ran = service.run(big, {});
  EXPECT_EQ(ran.output(), std::vector<std::uint32_t>{7});
  EXPECT_TRUE(service.lint_ir(big).clean());

  Service small;
  try {
    small.compile_program(big, {});
    FAIL() << "a 5 MiB global compiled for a 4 MiB memory";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("global `g` (1310720 words) does "
                                         "not fit in the 4194304-byte memory"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(small.lint_ir(big).clean());
  EXPECT_THROW(
      small.lint_ir("int a[1073741824];\nint main() { return a[0]; }"),
      CompileError);
}

TEST(Service, RefusesAStackTopOtherThanTheSimulatedMemory) {
  // The Service owns codegen.backend.stack_top: a caller's other value
  // would be silently lost, so it is refused; its own value is accepted.
  Options options;
  options.codegen.backend.stack_top = std::uint32_t{1} << 20;
  EXPECT_THROW(Service{options}, InternalError);
  EXPECT_THROW(compile_once(kProg, {}, options.codegen), InternalError);
  options.sim.mem_size = std::size_t{1} << 20;
  EXPECT_NO_THROW(Service{options});
  EXPECT_EQ(Service(Options{}).options().codegen.backend.stack_top,
            SimOptions{}.mem_size);
}

TEST(Service, CompiledProgramCarriesTheFullRequestedConfig) {
  ProcessorConfig cfg;
  cfg.pipeline_stages = 4;
  cfg.unified_memory_contention = true;

  Service service;
  const Program cold = service.compile_program(kProg, cfg);
  EXPECT_EQ(cold.config.pipeline_stages, 4u);
  EXPECT_TRUE(cold.config.unified_memory_contention);
  // Second request is served from the in-memory store; still re-stamped.
  const Program warm = service.compile_program(kProg, cfg);
  EXPECT_EQ(warm.config.pipeline_stages, 4u);
  EXPECT_EQ(serial::encode_program(cold), serial::encode_program(warm));
}

// ------------------------------------------------------ persistent store

TEST(Service, StoreHitsAcrossProcessesAreByteIdenticalToColdCompiles) {
  const std::string dir = scratch_dir("store_bytes");
  ProcessorConfig cfg;
  cfg.num_alus = 2;
  const ProcessorConfig variant = sim_only_variant(cfg);

  Options options;
  options.store_dir = dir;
  std::vector<std::uint8_t> cold_bytes;
  std::string cold_asm;
  {
    Service cold(options);
    cold_bytes = serial::encode_program(cold.compile_program(kProg, cfg));
    cold_asm = cold.compile_asm(kProg, cfg);
    EXPECT_GE(cold.stats().compiles(), 1u);
  }
  // A fresh Service (fresh process, in effect) with the same store root
  // must serve the Program from disk without running any compile stage.
  Service warm(options);
  Program restamped = warm.compile_program(kProg, variant);
  EXPECT_EQ(warm.stats().compiles(), 0u);
  EXPECT_GE(warm.stats().store.program.hits, 1u);

  // Byte-identical Program: the stored blob is canonicalised to the
  // codegen slice and re-stamped, so serialising with the *original*
  // config must reproduce the cold bytes exactly.
  restamped.config = cfg;
  EXPECT_EQ(serial::encode_program(restamped), cold_bytes);

  // Assembly text is never stored: a warm compile_asm decodes the IR,
  // reruns the backend once and prints the cold text, which assembles
  // to the cold Program.
  const std::string warm_asm = warm.compile_asm(kProg, variant);
  EXPECT_EQ(warm_asm, cold_asm);
  EXPECT_EQ(serial::encode_program(asmtool::assemble(warm_asm, cfg)),
            cold_bytes);
  const ServiceStats stats = warm.stats();
  EXPECT_EQ(stats.backend_runs, 1u);
  EXPECT_EQ(stats.frontend_runs, 0u);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       store_version_tag() / "asm"));
  std::filesystem::remove_all(dir);
}

TEST(Store, VersionTagIsolatesIncompatibleToolchains) {
  const std::string dir = scratch_dir("store_version");
  const ArtifactId id{Granularity::kIrLint, 42};
  {
    Store a(dir, "vA");
    a.put(id, "blob-from-vA");
  }
  Store b(dir, "vB");
  std::string blob;
  EXPECT_FALSE(b.get(id, blob));  // invisible across tags
  Store a2(dir, "vA");
  ASSERT_TRUE(a2.get(id, blob));  // durable within a tag
  EXPECT_EQ(blob, "blob-from-vA");
  std::filesystem::remove_all(dir);
}

TEST(Store, RejectsOldLayoutAndForeignDirectories) {
  // A pre-PR7 store put granularity directories directly under the
  // version directory the caller pointed at; passing such a directory
  // as the root now fails fast instead of silently nesting a new store.
  const std::string old_layout = scratch_dir("store_old_layout");
  std::filesystem::create_directories(old_layout + "/asm");
  EXPECT_THROW(Store(old_layout, "vA"), Error);

  // A versioned directory that exists but carries no format marker was
  // not written by this toolchain — refuse to adopt it.
  const std::string foreign = scratch_dir("store_foreign");
  std::filesystem::create_directories(foreign + "/vA");
  EXPECT_THROW(Store(foreign, "vA"), Error);

  std::filesystem::remove_all(old_layout);
  std::filesystem::remove_all(foreign);
}

TEST(Store, ArtifactIdFormatting) {
  const ArtifactId id{Granularity::kProgram, 0xdeadbeefu};
  EXPECT_EQ(to_string(id), "program:00000000deadbeef");
  EXPECT_EQ(to_string(Granularity::kIr), std::string("ir"));
  EXPECT_EQ(ArtifactId{}, (ArtifactId{Granularity::kIr, 0}));
}

// ------------------------------------------------------ batch scheduler

TEST(Service, WarmBatchRunsZeroCompilesAndZeroSimulations) {
  const std::string dir = scratch_dir("warm_batch");
  const std::vector<std::string> sources{kProg, kProg2};
  std::vector<ProcessorConfig> configs;
  for (unsigned alus = 1; alus <= 2; ++alus) {
    for (unsigned stages = 2; stages <= 3; ++stages) {
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      cfg.pipeline_stages = stages;
      configs.push_back(cfg);
    }
  }

  Options options;
  options.store_dir = dir;
  options.jobs = 1;
  std::vector<RunOutcome> cold;
  {
    Service service(options);
    cold = service.run_batch(sources, configs);
    // 2 sources x 2 ALU slices: stage variants share their compiles.
    EXPECT_EQ(service.stats().backend_runs, 4u);
    EXPECT_EQ(service.stats().simulations, 8u);
  }

  options.jobs = 4;  // jobs must not affect results either
  Service warm(options);
  const std::vector<RunOutcome> warm_outcomes =
      warm.run_batch(sources, configs);
  const ServiceStats stats = warm.stats();
  EXPECT_EQ(stats.compiles(), 0u);
  EXPECT_EQ(stats.simulations, 0u);
  EXPECT_EQ(stats.result_hits, 8u);

  ASSERT_EQ(warm_outcomes.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].error;
    EXPECT_TRUE(warm_outcomes[i].from_result_cache) << i;
    expect_same_outcome(warm_outcomes[i], cold[i], i);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, SecondBatchIsAnsweredFromTheLifetimeResultCache) {
  namespace fs = std::filesystem;
  // Run from an empty directory: a memory-only Service writes nothing,
  // not even relative to the working directory.
  const fs::path cwd = scratch_dir("lifetime_cwd");
  fs::create_directories(cwd);
  const fs::path old_cwd = fs::current_path();
  fs::current_path(cwd);

  const std::vector<std::string> sources{kProg, kProg2};
  std::vector<ProcessorConfig> configs(2);
  configs[1].num_alus = 2;
  Options options;
  options.jobs = 2;
  Service service(options);
  const std::vector<RunOutcome> first = service.run_batch(sources, configs);
  const std::uint64_t simulations = service.stats().simulations;
  const std::vector<RunOutcome> second = service.run_batch(sources, configs);
  fs::current_path(old_cwd);
  EXPECT_TRUE(fs::is_empty(cwd));
  fs::remove_all(cwd);

  EXPECT_EQ(simulations, 4u);
  EXPECT_EQ(service.stats().simulations, simulations);
  EXPECT_EQ(service.stats().result_hits, 4u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok) << first[i].error;
    EXPECT_FALSE(first[i].from_result_cache) << i;
    EXPECT_TRUE(second[i].from_result_cache) << i;
    expect_same_outcome(second[i], first[i], i);
  }
}

TEST(Service, ResultFileIsReadOnTheFirstBatchNotBefore) {
  namespace fs = std::filesystem;
  const std::string dir = scratch_dir("lazy_results");
  fs::create_directories(dir);
  Options options;
  options.result_cache_file = dir + "/results.cache";
  const ProcessorConfig cfg;
  {
    Service writer(options);
    ASSERT_TRUE(writer.run_batch({kProg}, {cfg})[0].ok);
  }
  fs::rename(options.result_cache_file, dir + "/saved");

  // Neither construction nor a compile reads (or writes) the file...
  Service service(options);
  service.compile_program(kProg, cfg);
  EXPECT_FALSE(fs::exists(options.result_cache_file));
  // ...so the file put back now is what the first batch loads.
  fs::rename(dir + "/saved", options.result_cache_file);
  const std::vector<RunOutcome> outcomes = service.run_batch({kProg}, {cfg});
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_TRUE(outcomes[0].from_result_cache);
  EXPECT_EQ(service.stats().simulations, 0u);
  fs::remove_all(dir);
}

TEST(Service, ResultCacheNeverAnswersForDifferentCodegenOptions) {
  const std::string dir = scratch_dir("result_keying");
  ProcessorConfig cfg;

  Options optimized;
  optimized.store_dir = dir;
  {
    Service service(optimized);
    const auto outcomes = service.run_batch({kProg}, {cfg});
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  }
  Options unoptimized = optimized;
  unoptimized.codegen.optimize = false;
  Service service(unoptimized);
  const auto outcomes = service.run_batch({kProg}, {cfg});
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  // Same source, same config — but different codegen options must miss
  // the persisted results and resimulate.
  EXPECT_FALSE(outcomes[0].from_result_cache);
  EXPECT_EQ(service.stats().simulations, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Service, BatchIndexingIsSourceMajorAndFailuresAreContained) {
  ProcessorConfig good;
  ProcessorConfig bad;
  bad.num_alus = 0;  // validate() rejects

  Service service;
  const std::vector<std::string> sources{kProg, kProg2};
  const auto outcomes = service.run_batch(sources, {good, bad});
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok);   // kProg  x good
  EXPECT_FALSE(outcomes[1].ok);  // kProg  x bad
  EXPECT_TRUE(outcomes[2].ok);   // kProg2 x good
  EXPECT_FALSE(outcomes[3].ok);  // kProg2 x bad
  EXPECT_NE(outcomes[1].error.find("num_alus"), std::string::npos);
  // Distinct sources on the same config produce distinct outputs.
  EXPECT_NE(outcomes[0].output_hash, outcomes[2].output_hash);
}

// ----------------------------------------------------- simulation dedup

TEST(SimSlice, ResetsExactlyTheSimulatorInvisibleFields) {
  ProcessorConfig cfg;
  cfg.num_alus = 3;
  cfg.max_regs_per_instr = 3;
  cfg.reg_port_budget = 6;
  cfg.forwarding = false;
  cfg.load_latency = 2;
  cfg.pipeline_stages = 4;
  cfg.unified_memory_contention = true;

  const ProcessorConfig slice = Service::sim_slice(cfg);
  const ProcessorConfig defaults;
  // The simulator-invisible fields are reset...
  EXPECT_EQ(slice.num_alus, defaults.num_alus);
  EXPECT_EQ(slice.max_regs_per_instr, defaults.max_regs_per_instr);
  // ...and everything the simulator reads is preserved.
  EXPECT_EQ(slice.reg_port_budget, 6u);
  EXPECT_FALSE(slice.forwarding);
  EXPECT_EQ(slice.load_latency, 2u);
  EXPECT_EQ(slice.pipeline_stages, 4u);
  EXPECT_TRUE(slice.unified_memory_contention);
}

TEST(Service, DuplicateBatchItemsSimulateOnce) {
  // At jobs 4 the three duplicates wait on the first one's simulation
  // entry, so the TSan job exercises the shared path.
  ProcessorConfig cfg;
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    Options options;
    options.jobs = jobs;
    Service service(options);
    const auto outcomes = service.run_batch({kProg}, {cfg, cfg, cfg, cfg});
    ASSERT_EQ(outcomes.size(), 4u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
      expect_same_outcome(outcomes[i], outcomes[0], i);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.simulations, 1u);
    EXPECT_EQ(stats.sim_dedup_hits, 3u);
  }
}

TEST(Service, IdenticalProgramsAcrossCompileGroupsSimulateOnce) {
  // num_alus above the issue width cannot change the schedule (packing
  // is bounded by issue_width), so 4 and 8 ALUs compile separately —
  // distinct codegen slices — yet yield byte-identical programs. The
  // dedup key canonicalises num_alus away (sim_slice) and collapses
  // the two simulations.
  ProcessorConfig a;  // 4 ALUs
  ProcessorConfig b;
  b.num_alus = 8;
  {
    Service probe;
    Program pa = probe.compile_program(kProg, a);
    Program pb = probe.compile_program(kProg, b);
    pa.config = Service::sim_slice(pa.config);
    pb.config = Service::sim_slice(pb.config);
    ASSERT_EQ(serial::encode_program(pa), serial::encode_program(pb))
        << "precondition: these configs no longer produce identical "
           "programs; pick another simulator-invisible codegen knob";
  }

  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    Options options;
    options.jobs = jobs;
    Service service(options);
    const auto outcomes = service.run_batch({kProg}, {a, b});
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.backend_runs, 2u);  // separate compile groups...
    EXPECT_EQ(stats.simulations, 1u);   // ...one simulation
    EXPECT_EQ(stats.sim_dedup_hits, 1u);
    EXPECT_EQ(outcomes[0].cycles, outcomes[1].cycles);
    EXPECT_EQ(outcomes[0].output_hash, outcomes[1].output_hash);
    EXPECT_EQ(outcomes[0].ret, outcomes[1].ret);
  }
}

TEST(Service, ProgramsThatDifferInOneLiteralBothSimulate) {
  // The dedup key must see every literal: these two compile to Programs
  // that differ only where 1234 and 1235 are materialised.
  const std::string a = "int main() { out(1234); return 0; }";
  const std::string b = "int main() { out(1235); return 0; }";
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    Options options;
    options.jobs = jobs;
    Service service(options);
    const auto outcomes = service.run_batch({a, b}, {ProcessorConfig{}});
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
    EXPECT_EQ(service.stats().simulations, 2u);
    EXPECT_EQ(service.stats().sim_dedup_hits, 0u);
    EXPECT_NE(outcomes[0].output_hash, outcomes[1].output_hash);
  }
}

TEST(Service, SimOnlyGridCompilesOncePerSourceAndSliceThenNeverWarm) {
  // 2 sources x 2 codegen slices x 4 sim-only variants: 4 compile
  // groups cold, and a warm store serves all of them.
  const std::string dir = scratch_dir("slice_keys");
  const std::vector<std::string> sources{kProg, kProg2};
  std::vector<ProcessorConfig> configs;
  for (unsigned alus = 1; alus <= 2; ++alus) {
    for (unsigned stages = 2; stages <= 3; ++stages) {
      for (const bool contention : {false, true}) {
        ProcessorConfig cfg;
        cfg.num_alus = alus;
        cfg.pipeline_stages = stages;
        cfg.unified_memory_contention = contention;
        configs.push_back(cfg);
      }
    }
  }
  Options options;
  options.store_dir = dir;
  options.jobs = 2;
  std::vector<RunOutcome> cold;
  {
    Service service(options);
    cold = service.run_batch(sources, configs);
    EXPECT_EQ(service.stats().frontend_runs, 2u);
    EXPECT_EQ(service.stats().backend_runs, 4u);
    EXPECT_EQ(service.stats().store.program.misses, 4u);
  }
  // A fresh result file, so the warm run simulates every point again.
  options.result_cache_file = dir + "/other-results.cache";
  Service warm(options);
  const std::vector<RunOutcome> again = warm.run_batch(sources, configs);
  const ServiceStats stats = warm.stats();
  EXPECT_EQ(stats.compiles(), 0u);
  EXPECT_EQ(stats.store.program.hits, 4u);
  EXPECT_EQ(stats.store.program.misses, 0u);
  EXPECT_EQ(stats.result_hits, 0u);
  ASSERT_EQ(again.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].error;
    EXPECT_FALSE(again[i].from_result_cache) << i;
    expect_same_outcome(again[i], cold[i], i);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, FailingSourceFailsOnceAndSparesTheBatch) {
  // A source that does not parse, in four compile groups at jobs 4: its
  // IR build fails once and every group rethrows the stored error,
  // while the good source's items are unaffected.
  const std::string bad = "int main() { return 1 + ; }";
  std::string want;
  try {
    Service().compile_module(bad);
  } catch (const CompileError& e) {
    want = e.what();
  }
  ASSERT_FALSE(want.empty()) << "precondition: the source must not compile";

  std::vector<ProcessorConfig> configs;
  for (unsigned alus = 1; alus <= 4; ++alus) {
    ProcessorConfig cfg;
    cfg.num_alus = alus;
    configs.push_back(cfg);
  }
  Options parallel;
  parallel.jobs = 4;
  Service service(parallel);
  const auto outcomes = service.run_batch({bad, kProg}, configs);
  const auto serial = Service().run_batch({bad, kProg}, configs);
  ASSERT_EQ(outcomes.size(), 2 * configs.size());
  for (std::size_t p = 0; p < configs.size(); ++p) {
    EXPECT_FALSE(outcomes[p].ok) << p;
    EXPECT_EQ(outcomes[p].error, want) << p;
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    expect_same_outcome(outcomes[i], serial[i], i);
  }
  EXPECT_EQ(service.stats().frontend_runs, 1u);  // kProg only
}

TEST(Service, BatchNeverWaitsOnAFrontend) {
  // A 2000-statement source and a small one over eight codegen slices
  // at jobs 4: each source's first compile group builds its Module
  // before the source's other groups are queued, so no group task
  // parks on another task's frontend, however the workers interleave.
  const std::vector<std::string> sources{
      workloads::make_straight_line(1, 2000), kProg};
  std::vector<ProcessorConfig> configs;
  for (unsigned alus = 1; alus <= 4; ++alus) {
    for (const bool forwarding : {false, true}) {
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      cfg.forwarding = forwarding;
      configs.push_back(cfg);
    }
  }
  Options options;
  options.jobs = 4;
  Service service(options);
  const auto outcomes = service.run_batch(sources, configs);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.module_waits, 0u);
  EXPECT_EQ(stats.frontend_runs, 2u);
  EXPECT_EQ(stats.backend_runs, 16u);
  const auto serial = Service().run_batch(sources, configs);
  ASSERT_EQ(outcomes.size(), serial.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    expect_same_outcome(outcomes[i], serial[i], i);
  }
}

TEST(Service, MixedSizeBatchIsIdenticalForAnyJobsCount) {
  // Sources of different sizes, one of which does not compile, over
  // two codegen slices with two simulation-only variants each: the
  // largest-first source order and the fan-out change which worker
  // runs what, never an outcome.
  const std::vector<std::string> sources{
      kProg, workloads::make_straight_line(2, 300),
      "int main() { return 1 + ; }", kProg2,
      workloads::make_straight_line(3, 150)};
  std::vector<ProcessorConfig> configs;
  for (unsigned alus = 1; alus <= 2; ++alus) {
    for (const unsigned stages : {2u, 3u}) {
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      cfg.pipeline_stages = stages;
      configs.push_back(cfg);
    }
  }
  const auto serial = Service().run_batch(sources, configs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ok, i / configs.size() != 2) << i << serial[i].error;
  }
  for (const unsigned jobs : {2u, 3u, 8u}) {
    SCOPED_TRACE(jobs);
    Options options;
    options.jobs = jobs;
    Service service(options);
    const auto outcomes = service.run_batch(sources, configs);
    ASSERT_EQ(outcomes.size(), serial.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].error, serial[i].error) << i;
      expect_same_outcome(outcomes[i], serial[i], i);
    }
    EXPECT_EQ(service.stats().frontend_runs, 4u);
    EXPECT_EQ(service.stats().backend_runs, 8u);
  }
}

TEST(Service, PartiallyWarmStoreMatchesASerialColdRun) {
  // One config's Program is already stored; the batch's other four
  // codegen slices compile against the IR the store serves. Whichever
  // group a source task runs first, the outcomes are the cold ones.
  const std::string dir = scratch_dir("partly_warm");
  std::vector<ProcessorConfig> configs;
  for (unsigned alus = 1; alus <= 5; ++alus) {
    ProcessorConfig cfg;
    cfg.num_alus = alus;
    configs.push_back(cfg);
  }
  Options options;
  options.store_dir = dir;
  (void)Service(options).compile_program(kProg, configs[2]);
  options.jobs = 4;
  Service service(options);
  const auto outcomes = service.run_batch({kProg}, configs);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.store.program.hits, 1u);
  EXPECT_EQ(stats.store.program.misses, 4u);
  EXPECT_EQ(stats.backend_runs, 4u);
  EXPECT_EQ(stats.frontend_runs, 0u);
  EXPECT_EQ(stats.module_decodes, 1u);
  const auto serial = Service().run_batch({kProg}, configs);
  ASSERT_EQ(outcomes.size(), serial.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    expect_same_outcome(outcomes[i], serial[i], i);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, SimVisibleVariantsAreNeverDeduped) {
  ProcessorConfig a;
  ProcessorConfig b;
  b.pipeline_stages = 3;

  Service service;
  const auto outcomes = service.run_batch({kProg}, {a, b});
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.backend_runs, 1u);  // shared compile...
  EXPECT_EQ(stats.simulations, 2u);   // ...but both points simulate
  EXPECT_EQ(stats.sim_dedup_hits, 0u);
  EXPECT_NE(outcomes[0].cycles, outcomes[1].cycles);
}

/// The outcome run_batch must report for a finished stand-alone run.
RunOutcome outcome_of(const EpicSimulator& sim) {
  RunOutcome outcome;
  static_cast<SimStats&>(outcome) = sim.stats();
  outcome.set_output(sim.output());
  outcome.ret = sim.gpr(3);
  return outcome;
}

TEST(Service, SimOnlyVariantsShareOneImage) {
  // {stages 2,3} x {contention off,on} compile once and decode once:
  // one SimImage, read concurrently by four simulators (jobs = 4, so
  // the TSan job covers the shared reads). On the interpretive tier
  // the image is still the one shared Program. Each outcome equals a
  // stand-alone simulator built on that point's own config.
  std::vector<ProcessorConfig> configs;
  for (const unsigned stages : {2u, 3u}) {
    for (const bool contention : {false, true}) {
      ProcessorConfig cfg;
      cfg.pipeline_stages = stages;
      cfg.unified_memory_contention = contention;
      configs.push_back(cfg);
    }
  }
  for (const ExecTier tier :
       {ExecTier::Interp, ExecTier::Decode, ExecTier::Threaded}) {
    SCOPED_TRACE(to_string(tier));
    Options options;
    options.jobs = 4;
    options.sim.exec_tier = tier;
    Service service(options);
    const auto outcomes = service.run_batch({kProg}, configs);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.backend_runs, 1u);
    EXPECT_EQ(stats.sim_images, 1u);
    EXPECT_EQ(stats.simulations, 4u);
    EXPECT_EQ(stats.sim_dedup_hits, 0u);
    ASSERT_EQ(outcomes.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      EpicSimulator alone(service.compile_program(kProg, configs[i]),
                          CustomOpTable::for_names(configs[i].custom_ops),
                          options.sim);
      alone.run();
      expect_same_outcome(outcomes[i], outcome_of(alone), i);
    }
  }
}

TEST(Service, SharedImageRunsBuiltinCustomOpConfigsLikeRunOnce) {
  // A config enabling a builtin custom op: the group's image decodes
  // against the table with the builtins installed, and both
  // simulation-only variants match a private simulator.
  ProcessorConfig a;
  a.custom_ops = {"rotr"};
  const ProcessorConfig b = sim_only_variant(a);
  Options options;
  options.jobs = 2;
  Service service(options);
  const auto outcomes = service.run_batch({kProg}, {a, b});
  EXPECT_EQ(service.stats().sim_images, 1u);
  EXPECT_EQ(service.stats().simulations, 2u);
  ASSERT_EQ(outcomes.size(), 2u);
  expect_same_outcome(outcomes[0], outcome_of(run_once(kProg, a)), 0);
  expect_same_outcome(outcomes[1], outcome_of(run_once(kProg, b)), 1);
}

TEST(Service, ResultCacheNeverAnswersAcrossExecutionTiers) {
  // Tiers are differentially proven bit-identical, but the cache must
  // not rely on that: a cached outcome may only answer for the tier
  // that produced it, so a tier divergence can never hide behind a
  // result-cache hit. The persisted-result context folds the tier. The
  // in-batch sim-dedup key does not need to: a Service runs one tier.
  const std::string dir = scratch_dir("tier_keying");
  ProcessorConfig cfg;

  Options threaded;
  threaded.store_dir = dir;
  threaded.sim.exec_tier = ExecTier::Threaded;
  std::vector<RunOutcome> first;
  {
    Service service(threaded);
    first = service.run_batch({kProg}, {cfg});
    ASSERT_TRUE(first[0].ok) << first[0].error;
    EXPECT_EQ(service.stats().simulations, 1u);
  }

  Options decode = threaded;
  decode.sim.exec_tier = ExecTier::Decode;
  {
    Service service(decode);
    const auto outcomes = service.run_batch({kProg}, {cfg});
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[0].from_result_cache);
    EXPECT_EQ(service.stats().simulations, 1u);
    // The oracle contract still holds: identical observable outcome.
    EXPECT_EQ(outcomes[0].cycles, first[0].cycles);
    EXPECT_EQ(outcomes[0].output_hash, first[0].output_hash);
    EXPECT_EQ(outcomes[0].ret, first[0].ret);
  }

  // Same tier again: now the persisted result answers.
  Service warm(threaded);
  const auto warm_outcomes = warm.run_batch({kProg}, {cfg});
  ASSERT_TRUE(warm_outcomes[0].ok) << warm_outcomes[0].error;
  EXPECT_TRUE(warm_outcomes[0].from_result_cache);
  EXPECT_EQ(warm.stats().simulations, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Explore, SweepBatchSharesCompilesAcrossSourcesAndMatchesRunSweep) {
  explore::SweepSpec spec;
  for (unsigned stages = 2; stages <= 4; ++stages) {
    ProcessorConfig cfg;
    cfg.pipeline_stages = stages;
    spec.add(cfg);
  }

  pipeline::Options options;
  const explore::SweepBatch batch =
      explore::run_sweep_batch({kProg, kProg2}, spec, options);
  ASSERT_EQ(batch.sweeps.size(), 2u);
  // 3 stage variants per source collapse onto one compile per source.
  EXPECT_EQ(batch.stats.backend_runs, 2u);
  EXPECT_EQ(batch.stats.simulations, 6u);

  const explore::SweepResult lone = explore::run_sweep(kProg, spec, options);
  EXPECT_EQ(batch.sweeps[0].to_csv(), lone.to_csv());
  EXPECT_EQ(batch.sweeps[0].to_json(), lone.to_json());
}

// ------------------------------------------------- IR-lint granularity

// A source whose *unoptimised* IR carries a dead store (the first write
// to x is overwritten before any read), so lint_ir has a finding to
// cache when the Service runs with optimize off.
const char* kDeadStoreProg =
    "int main() { int x = 1; x = 2; out(x); return 0; }";

TEST(Service, IrLintRunsOnceAndIsServedFromTheWarmStore) {
  const std::string dir = scratch_dir("irlint");
  Options options;
  options.store_dir = dir;
  analysis::LintReport cold;
  {
    Service service(options);
    cold = service.lint_ir(kProg);
    EXPECT_EQ(service.stats().ir_lint_runs, 1u);
    const analysis::LintReport again = service.lint_ir(kProg);
    EXPECT_EQ(service.stats().ir_lint_runs, 1u);
    EXPECT_EQ(again.to_json(), cold.to_json());
  }
  // A fresh Service over the same store serves the cached report: no
  // lint execution, and no IR rebuild either (the lint never needed the
  // Module on the warm path).
  Service warm(options);
  const analysis::LintReport report = warm.lint_ir(kProg);
  EXPECT_EQ(warm.stats().ir_lint_runs, 0u);
  EXPECT_EQ(warm.stats().frontend_runs, 0u);
  EXPECT_EQ(warm.stats().store.ir_lint.hits, 1u);
  EXPECT_EQ(report.to_json(), cold.to_json());
}

TEST(Service, IrLintReportRoundTripsThroughTheStoreFieldForField) {
  Options options;
  options.codegen.optimize = false;
  Service service(options);
  const analysis::LintReport direct =
      analysis::lint_module(service.compile_module(kDeadStoreProg));
  ASSERT_FALSE(direct.diags.empty());
  const analysis::LintReport cached = service.lint_ir(kDeadStoreProg);
  EXPECT_EQ(cached.to_json(), direct.to_json());
  EXPECT_EQ(cached.to_text(), direct.to_text());
}

TEST(Service, IrLintWerrorAppliesAtReadTimeOverOneCachedBlob) {
  Options options;
  options.codegen.optimize = false;
  Service service(options);
  const analysis::LintReport lax = service.lint_ir(kDeadStoreProg,
                                                   /*werror=*/false);
  ASSERT_GT(lax.warning_count(), 0u) << lax.to_text();
  EXPECT_EQ(lax.error_count(), 0u);
  EXPECT_TRUE(lax.clean());
  // The strict read reuses the same cached blob — no second lint run —
  // and folds werror in on the way out.
  const analysis::LintReport strict = service.lint_ir(kDeadStoreProg,
                                                      /*werror=*/true);
  EXPECT_EQ(service.stats().ir_lint_runs, 1u);
  EXPECT_FALSE(strict.clean());
  EXPECT_EQ(strict.error_count(), lax.warning_count());
  EXPECT_EQ(strict.diags.size(), lax.diags.size());
}

}  // namespace
}  // namespace cepic::pipeline
