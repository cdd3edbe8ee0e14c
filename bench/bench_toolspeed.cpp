// S1: tooling throughput (google-benchmark) — how fast the CEPIC tools
// themselves run: MiniC compilation, optimisation, EPIC backend,
// assembly, binary encode/decode, and the simulated MIPS of both cycle
// simulators.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "serial/serial.hpp"
#include "asmtool/assembler.hpp"
#include "backend/backend.hpp"
#include "core/custom.hpp"
#include "mdes/mdes.hpp"
#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "opt/opt.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cepic;

const workloads::Workload& dct_workload() {
  static const workloads::Workload w = workloads::make_dct(16);
  return w;
}

void BM_Frontend(benchmark::State& state) {
  const auto& w = dct_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(minic::compile_to_ir(w.minic_source));
  }
}
BENCHMARK(BM_Frontend);

void BM_Optimize(benchmark::State& state) {
  const auto& w = dct_workload();
  const ir::Module base = minic::compile_to_ir(w.minic_source);
  for (auto _ : state) {
    ir::Module m = base;
    opt::optimize(m);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_Optimize);

// ---- per-pass micro-benchmarks (BM_OptPass/<name>) -------------------
// Each runs one pass invocation, with a fresh analysis manager, over
// every function of the whole workload corpus (unoptimised IR),
// isolating a single pass's cost from the pipeline's scheduling.  The
// module copy per iteration is part of the measured loop for every pass
// equally.

const std::vector<ir::Module>& opt_corpus() {
  static const std::vector<ir::Module> modules = [] {
    std::vector<ir::Module> out;
    for (const auto& w : workloads::all_workloads(16, 8, 8, 8)) {
      out.push_back(minic::compile_to_ir(w.minic_source));
    }
    out.push_back(minic::compile_to_ir(dct_workload().minic_source));
    return out;
  }();
  return modules;
}

template <typename Pass>
void opt_pass_bench(benchmark::State& state, Pass pass) {
  const auto& corpus = opt_corpus();
  for (auto _ : state) {
    for (const ir::Module& base : corpus) {
      ir::Module m = base;
      for (ir::Function& fn : m.functions) {
        analysis::AnalysisManager am;  // cold: every analysis computed
        benchmark::DoNotOptimize(pass(fn, am));
      }
      benchmark::DoNotOptimize(m);
    }
  }
}

void BM_OptPassConstfold(benchmark::State& state) {
  opt_pass_bench(state, opt::pass_constfold);
}
BENCHMARK(BM_OptPassConstfold)->Name("BM_OptPass/constfold");

void BM_OptPassCopyProp(benchmark::State& state) {
  opt_pass_bench(state, opt::pass_copy_propagate);
}
BENCHMARK(BM_OptPassCopyProp)->Name("BM_OptPass/copy_propagate");

void BM_OptPassCse(benchmark::State& state) {
  opt_pass_bench(state, opt::pass_cse);
}
BENCHMARK(BM_OptPassCse)->Name("BM_OptPass/cse");

void BM_OptPassDce(benchmark::State& state) {
  opt_pass_bench(state, opt::pass_dce);
}
BENCHMARK(BM_OptPassDce)->Name("BM_OptPass/dce");

void BM_OptPassSimplifyCfg(benchmark::State& state) {
  opt_pass_bench(state, opt::pass_simplify_cfg);
}
BENCHMARK(BM_OptPassSimplifyCfg)->Name("BM_OptPass/simplify_cfg");

void BM_OptPassLicm(benchmark::State& state) {
  opt_pass_bench(state, opt::pass_licm);
}
BENCHMARK(BM_OptPassLicm)->Name("BM_OptPass/licm");

void BM_OptPassIfConvert(benchmark::State& state) {
  opt_pass_bench(state,
                 [](ir::Function& fn, analysis::AnalysisManager& am) {
                   return opt::pass_if_convert(fn, am, 10);
                 });
}
BENCHMARK(BM_OptPassIfConvert)->Name("BM_OptPass/if_convert");

void BM_OptPassInline(benchmark::State& state) {
  const auto& corpus = opt_corpus();
  for (auto _ : state) {
    for (const ir::Module& base : corpus) {
      ir::Module m = base;
      benchmark::DoNotOptimize(opt::pass_inline(m, 200));
      benchmark::DoNotOptimize(m);
    }
  }
}
BENCHMARK(BM_OptPassInline)->Name("BM_OptPass/inline");

// The whole backend plus the assembly printer: the same work as this
// row's BENCH_toolspeed.json baseline, which the BM_EpicBackend /
// BM_Frontend ratio guard compares against.
void BM_EpicBackend(benchmark::State& state) {
  const auto& w = dct_workload();
  ir::Module m = minic::compile_to_ir(w.minic_source);
  opt::optimize(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asmtool::to_text(
        backend::compile_ir_to_listing(m, ProcessorConfig{})));
  }
}
BENCHMARK(BM_EpicBackend);

// ---- backend stages (BM_Backend/<stage>) ------------------------------
// The four stages compile_ir_to_listing runs, each timed alone, plus
// to_text, the printer only `cepic-cc --emit-asm` pays for: every
// stage's input is produced once, outside the timed loop. regalloc and
// emit consume their input, so their times include copying it.

struct BackendStages {
  ir::Module module;
  ProcessorConfig config;
  ir::DataLayout layout;
  CustomOpTable custom;
  Mdes mdes;
  std::vector<backend::MFunc> lowered, allocated;
  std::vector<backend::ScheduledFunc> scheduled;
  asmtool::Listing listing;

  explicit BackendStages(ir::Module m)
      : module(std::move(m)),
        layout(ir::layout_globals(module,
                                  backend::BackendOptions{}.stack_top)),
        custom(CustomOpTable::for_names(config.custom_ops)),
        mdes(config, &custom) {
    for (const ir::Function& fn : module.functions) {
      lowered.push_back(
          backend::lower_function(fn, module, layout, mdes, config));
      allocated.push_back(lowered.back());
      backend::allocate_registers(allocated.back(), config);
      scheduled.push_back(
          backend::schedule_function(allocated.back(), mdes, config));
    }
    listing = backend::emit_module_listing(scheduled, module, {});
  }
};

ir::Module optimized_ir(const std::string& source) {
  ir::Module m = minic::compile_to_ir(source);
  opt::optimize(m);
  return m;
}

const BackendStages& dct_stages() {
  static const BackendStages s(optimized_ir(dct_workload().minic_source));
  return s;
}

void BM_BackendLower(benchmark::State& state) {
  const BackendStages& s = dct_stages();
  for (auto _ : state) {
    for (const ir::Function& fn : s.module.functions) {
      benchmark::DoNotOptimize(
          backend::lower_function(fn, s.module, s.layout, s.mdes, s.config));
    }
  }
}
BENCHMARK(BM_BackendLower)->Name("BM_Backend/lower");

void BM_BackendRegalloc(benchmark::State& state) {
  const BackendStages& s = dct_stages();
  for (auto _ : state) {
    for (backend::MFunc mf : s.lowered) {
      backend::allocate_registers(mf, s.config);
      benchmark::DoNotOptimize(mf);
    }
  }
}
BENCHMARK(BM_BackendRegalloc)->Name("BM_Backend/regalloc");

void BM_BackendSchedule(benchmark::State& state) {
  const BackendStages& s = dct_stages();
  for (auto _ : state) {
    for (const backend::MFunc& mf : s.allocated) {
      benchmark::DoNotOptimize(
          backend::schedule_function(mf, s.mdes, s.config));
    }
  }
}
BENCHMARK(BM_BackendSchedule)->Name("BM_Backend/schedule");

void BM_BackendEmit(benchmark::State& state) {
  const BackendStages& s = dct_stages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend::emit_module_listing(s.scheduled, s.module, {}));
  }
}
BENCHMARK(BM_BackendEmit)->Name("BM_Backend/emit");

void BM_BackendToText(benchmark::State& state) {
  const BackendStages& s = dct_stages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(asmtool::to_text(s.listing));
  }
}
BENCHMARK(BM_BackendToText)->Name("BM_Backend/to_text");

// ---- compile-path scaling (BM_CompileScaling/...) ---------------------
// Straight-line mains of 1k-8k statements: one basic block that grows
// with the input, the shape that exposes a superlinear pass. Each
// iteration runs the pass on N statements (the reported time) and then
// on N/2, so host speed drift hits both alike; their time ratio is the
// "time/half" counter. cepic-prof bench bounds it at 2.2x for each
// doubling 1k -> 2k -> 4k -> 8k, for the whole compile (MiniC ->
// Program, what pipeline::Service runs) and for the list scheduler and
// copy propagation alone.

using ScalingJob = std::function<void()>;

ScalingJob compile_job(int statements) {
  return [source = workloads::make_straight_line(1, statements)] {
    const ProcessorConfig config;
    benchmark::DoNotOptimize(asmtool::encode(
        backend::compile_ir_to_listing(optimized_ir(source), config), config));
  };
}

ScalingJob schedule_job(int statements) {
  const auto s = std::make_shared<const BackendStages>(
      optimized_ir(workloads::make_straight_line(1, statements)));
  return [s] {
    for (const backend::MFunc& mf : s->allocated) {
      benchmark::DoNotOptimize(
          backend::schedule_function(mf, s->mdes, s->config));
    }
  };
}

ScalingJob copy_prop_job(int statements) {
  return [base = minic::compile_to_ir(
              workloads::make_straight_line(1, statements))] {
    ir::Module m = base;
    for (ir::Function& fn : m.functions) {
      analysis::AnalysisManager am;
      benchmark::DoNotOptimize(opt::pass_copy_propagate(fn, am));
    }
  };
}

double seconds_of(const ScalingJob& job) {
  const auto start = std::chrono::steady_clock::now();
  job();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_Scaling(benchmark::State& state, ScalingJob (*make)(int),
                int statements) {
  const ScalingJob full = make(statements);
  const ScalingJob half = make(statements / 2);
  double full_s = 0, half_s = 0;
  for (auto _ : state) {
    full_s += seconds_of(full);
    state.PauseTiming();
    half_s += seconds_of(half);
    state.ResumeTiming();
  }
  state.counters["time/half"] = half_s > 0 ? full_s / half_s : 0;
}

const bool kScalingRegistered = [] {
  for (const int k : {1, 2, 4, 8}) {
    const std::string size = std::to_string(k) + "k";
    const std::pair<std::string, ScalingJob (*)(int)> jobs[] = {
        {"BM_CompileScaling/", compile_job},
        {"BM_CompileScaling/schedule/", schedule_job},
        {"BM_CompileScaling/copy_propagate/", copy_prop_job}};
    for (const auto& [prefix, make] : jobs) {
      benchmark::RegisterBenchmark((prefix + size).c_str(), BM_Scaling, make,
                                   1000 * k);
    }
  }
  return true;
}();

void BM_Assembler(benchmark::State& state) {
  const std::string text = asmtool::to_text(dct_stages().listing);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const Program p = asmtool::assemble(text, ProcessorConfig{});
    ops += p.code.size();
    benchmark::DoNotOptimize(p);
  }
  state.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Assembler);

void BM_BinaryRoundtrip(benchmark::State& state) {
  const auto& w = dct_workload();
  const Program program =
      pipeline::compile_once(w.minic_source, ProcessorConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serial::decode_program(serial::encode_program(program)));
  }
}
BENCHMARK(BM_BinaryRoundtrip);

/// Runs `program` to completion once per iteration on a simulator
/// that lives across iterations (threaded blocks compile during the
/// first iterations and are reused by every later run).
void simulate(benchmark::State& state, const Program& program,
              ExecTier tier) {
  SimOptions options;
  options.exec_tier = tier;
  EpicSimulator sim(program, {}, options);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    sim.reset();
    sim.run();
    cycles += sim.stats().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

// Default options: the threaded-code tier.
void BM_EpicSimulator(benchmark::State& state) {
  simulate(state,
           pipeline::compile_once(dct_workload().minic_source,
                                  ProcessorConfig{}),
           ExecTier::Threaded);
}
BENCHMARK(BM_EpicSimulator);

// The threaded tier on AES (about 1 ms an iteration): long straight-line
// rounds, where compiling away per-bundle timing work pays most (CI
// perf-smoke floors its ratio to the decode tier).
void BM_EpicSimulatorAes(benchmark::State& state) {
  static const workloads::Workload aes = workloads::make_aes(4);
  simulate(state, pipeline::compile_once(aes.minic_source, ProcessorConfig{}),
           ExecTier::Threaded);
}
BENCHMARK(BM_EpicSimulatorAes)->Name("BM_EpicSimulator/aes");

// The pre-decoded fast path on its own: the baseline the threaded
// tier's speedup is measured against (CI perf-smoke guards the ratio).
void BM_EpicSimulatorDecode(benchmark::State& state) {
  simulate(state,
           pipeline::compile_once(dct_workload().minic_source,
                                  ProcessorConfig{}),
           ExecTier::Decode);
}
BENCHMARK(BM_EpicSimulatorDecode);

// The interpretive decode-every-cycle path: keeps the faster tiers'
// speedup honest in the recorded history.
void BM_EpicSimulatorLegacy(benchmark::State& state) {
  simulate(state,
           pipeline::compile_once(dct_workload().minic_source,
                                  ProcessorConfig{}),
           ExecTier::Interp);
}
BENCHMARK(BM_EpicSimulatorLegacy);

// Simulator start-up on a 4000-statement straight-line program,
// construction only. build_image builds a private SimImage each time
// (program checks + decode_program + per-run state), as a stand-alone
// EpicSimulator does; shared_image starts a simulator on one prebuilt
// image, as every run after the first of a run_batch compile group does.
const Program& startup_program() {
  static const Program p =
      pipeline::compile_once(workloads::make_straight_line(1, 4000),
                             ProcessorConfig{});
  return p;
}

void BM_SimStartupBuildImage(benchmark::State& state) {
  const Program& program = startup_program();
  for (auto _ : state) {
    state.PauseTiming();
    Program copy = program;
    state.ResumeTiming();
    EpicSimulator sim(std::move(copy));
    benchmark::DoNotOptimize(sim.pc());
  }
}
BENCHMARK(BM_SimStartupBuildImage)->Name("BM_SimStartup/build_image");

void BM_SimStartupSharedImage(benchmark::State& state) {
  const auto image =
      std::make_shared<const SimImage>(startup_program(), CustomOpTable{});
  for (auto _ : state) {
    EpicSimulator sim(image, startup_program().config);
    benchmark::DoNotOptimize(sim.pc());
  }
}
BENCHMARK(BM_SimStartupSharedImage)->Name("BM_SimStartup/shared_image");

void BM_SarmSimulator(benchmark::State& state) {
  const auto& w = dct_workload();
  auto program = sarm::compile_minic_to_sarm(w.minic_source);
  sarm::SarmSimulator sim(program);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    sim.reset();
    sim.run();
    cycles += sim.stats().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SarmSimulator);

void BM_IrInterpreter(benchmark::State& state) {
  const auto& w = dct_workload();
  ir::Module m = minic::compile_to_ir(w.minic_source);
  for (auto _ : state) {
    ir::Interpreter interp(m);
    benchmark::DoNotOptimize(interp.run());
  }
}
BENCHMARK(BM_IrInterpreter);

}  // namespace

BENCHMARK_MAIN();
