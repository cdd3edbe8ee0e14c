// cepic-perfbench — the end-to-end benchmark of one design-space
// request: MiniC -> optimised IR -> scheduled assembly -> Program ->
// simulated run, driven through the public pipeline::Service::run_batch
// path that cepic-explore and bench_table1 use.
//
//   cepic-perfbench --workload cold_sweep|warm_resim|sim_long --seed N
//                   --seconds S --trace 0|1 [--jobs J] [--work-dir DIR]
//                   [--results FILE] [--trace-out FILE]
//
// Closed loop: one process, one sweep in flight, `jobs` worker threads.
// Each timed pass is one whole request; set-up runs several times and
// reports its median. Every output is checked (native golden streams
// for the paper workloads on EPIC and SA-110; the IR interpreter on the
// unoptimised IR for the generated program). With --trace 1 the run
// also replays the request outside-in, timing each layer's public entry
// points, and reports per-layer metrics instead of end-to-end ones.
// The last stdout line is the JSON result; perfbench/README.md lists
// every metric. Exit codes: 0 correct, 1 an output or gate failed,
// 2 usage error or a non-Release build (no result printed).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "layers.hpp"
#include "minic_gen.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/thread_pool.hpp"
#include "sarm/driver.hpp"
#include "serial/serial.hpp"
#include "support/bits.hpp"
#include "trace.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace cepic;

constexpr int kGeneratedStatements = 4000;
constexpr unsigned kJobs = 4;

enum class Kind { ColdSweep, WarmResim, SimLong };

struct Args {
  Kind kind = Kind::ColdSweep;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned jobs = 0;  ///< 0 = min(kJobs, nproc)
  std::string work_dir = ".bench_build/work";
  std::string results_file;
  std::string trace_file;
};

// ---------------------------------------------------------------- inputs

struct Source {
  std::string name;
  std::string text;
  std::uint64_t golden_hash = 0;  ///< FNV-1a of the expected OUT stream
  bool paper = false;             ///< has an SA-110 baseline
};

/// Everything a request needs, made from the seed.
struct Plan {
  std::vector<Source> sources;
  std::vector<ProcessorConfig> grid;     ///< the batch's configs
  std::vector<ProcessorConfig> codegen;  ///< distinct codegen slices of grid
  SimOptions sim;
};

/// ALUs 1-4 x forwarding on/off: eight configs that each compile to
/// different code.
std::vector<ProcessorConfig> codegen_grid() {
  std::vector<ProcessorConfig> out;
  for (unsigned alus = 1; alus <= 4; ++alus) {
    for (const bool forwarding : {true, false}) {
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      cfg.forwarding = forwarding;
      out.push_back(cfg);
    }
  }
  return out;
}

Source paper_source(const workloads::Workload& w) {
  return Source{w.name, w.minic_source, fnv1a64_words(w.expected_output), true};
}

Plan make_plan(Kind kind, std::uint64_t seed, Tracer* tracer) {
  Plan plan;
  plan.sim.max_cycles = 8'000'000'000ull;
  if (kind == Kind::SimLong) {
    // Table 1 at paper scale: SHA 256x256, AES x1000, DCT 256x256,
    // Dijkstra 64 nodes, on EPIC with 1-4 ALUs.
    for (const auto& w : workloads::all_workloads(256, 1000, 256, 64)) {
      plan.sources.push_back(paper_source(w));
    }
    for (unsigned alus = 1; alus <= 4; ++alus) {
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      plan.grid.push_back(cfg);
    }
    plan.codegen = plan.grid;
    return plan;
  }
  for (const auto& w : workloads::all_workloads(16, 8, 16, 12)) {
    plan.sources.push_back(paper_source(w));
  }
  Source gen{"generated", generate_straight_line(seed, kGeneratedStatements),
             0, false};
  {
    // Oracle independent of the optimiser and the backend: the IR
    // interpreter on the unoptimised IR.
    Span span(tracer, "oracle.interp");
    const ir::Module module = minic::compile_to_ir(gen.text);
    ir::Interpreter interp(module);
    gen.golden_hash = fnv1a64_words(interp.run().output);
  }
  plan.sources.push_back(std::move(gen));
  plan.codegen = codegen_grid();
  if (kind == Kind::ColdSweep) {
    plan.grid = plan.codegen;
  } else {
    // Simulation-only variants share each codegen config's Program.
    for (const ProcessorConfig& base : plan.codegen) {
      for (const unsigned stages : {2u, 3u}) {
        for (const bool contention : {false, true}) {
          ProcessorConfig cfg = base;
          cfg.pipeline_stages = stages;
          cfg.unified_memory_contention = contention;
          plan.grid.push_back(cfg);
        }
      }
    }
  }
  return plan;
}

std::size_t codegen_index(const Plan& plan, const ProcessorConfig& cfg) {
  const ProcessorConfig slice = pipeline::Service::codegen_slice(cfg);
  for (std::size_t i = 0; i < plan.codegen.size(); ++i) {
    if (plan.codegen[i] == slice) return i;
  }
  throw Error("config outside the codegen grid: " + cfg.summary());
}

/// Canonical CEPX bytes of a Program: config reset to its codegen slice,
/// so a Program and its simulation-only variants compare equal.
std::vector<std::uint8_t> canonical_bytes(Program program) {
  program.config = pipeline::Service::codegen_slice(program.config);
  return serial::encode_program(program);
}

// ---------------------------------------------------------------- set-up

struct Setup {
  Plan plan;
  std::string store_dir;  ///< filled store (warm_resim, sim_long)
  /// Cold-compiled canonical Program bytes per (source, codegen index).
  std::vector<std::vector<std::uint8_t>> reference;
  std::vector<sarm::SProgram> sarm_programs;  ///< per paper source
  std::uint64_t sa110_cycles = 0;  ///< set-up baseline runs (cold, warm)
  LayerCounts counts;              ///< traced set-up only
  std::vector<std::string> errors;
};

class Errors {
public:
  void add(std::string e) {
    std::lock_guard<std::mutex> lock(mu_);
    list_.push_back(std::move(e));
  }
  std::vector<std::string> take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(list_.begin(), list_.end());
    return std::move(list_);
  }

private:
  std::mutex mu_;
  std::vector<std::string> list_;
};

/// Runs `fn`, turning an exception into a recorded error.
template <typename Fn>
void guarded(Errors& errors, const std::string& what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    errors.add(what + ": " + e.what());
  }
}

pipeline::Options service_options(const Plan& plan, unsigned jobs,
                                  const std::string& store_dir,
                                  const std::string& result_cache) {
  pipeline::Options o;
  o.jobs = jobs;
  o.sim = plan.sim;
  o.store_dir = store_dir;
  o.result_cache_file = result_cache;
  return o;
}

/// Builds the plan, compiles the SA-110 baseline (and runs it, except on
/// sim_long, whose passes run it) and, for the warm workloads, fills a
/// fresh store with every codegen point. With a tracer the set-up also
/// runs the outside-in compile of every codegen point and checks its
/// assembly against the store's.
Setup run_setup(Kind kind, const Args& args, unsigned jobs, int rep,
                Tracer* tracer) {
  Setup setup;
  setup.plan = make_plan(kind, args.seed, tracer);
  const Plan& plan = setup.plan;
  const std::size_t nsrc = plan.sources.size();
  const std::size_t ncg = plan.codegen.size();
  Errors errors;
  std::mutex counts_mu;

  const bool fill = kind != Kind::ColdSweep;
  std::optional<pipeline::Service> service;
  if (fill) {
    setup.store_dir = (fs::path(args.work_dir) / ("store-" + std::to_string(rep))).string();
    fs::remove_all(setup.store_dir);
    service.emplace(service_options(plan, jobs, setup.store_dir, ""));
    setup.reference.resize(nsrc * ncg);
  }
  setup.sarm_programs.resize(nsrc);
  std::vector<ir::Module> modules(nsrc);

  // The SA-110 baseline runs serially: a few tens of milliseconds, and
  // a serial sum is steadier than the slowest of several threads.
  sarm::SarmOptionsSim sarm_sim;
  sarm_sim.max_cycles = plan.sim.max_cycles;
  for (std::size_t s = 0; s < nsrc; ++s) {
    const Source& src = plan.sources[s];
    if (!src.paper) continue;
    guarded(errors, "SA-110/" + src.name, [&] {
      const SpanSite at{tracer, 0, -1};
      setup.sarm_programs[s] = sarm_compile(at, src.text, sarm_sim.mem_size);
      if (kind == Kind::SimLong) return;  // runs in every pass
      const SimResult r = sarm_run(at, setup.sarm_programs[s], sarm_sim, setup.counts);
      if (r.output_hash != src.golden_hash) {
        throw Error("output differs from the native golden stream");
      }
      setup.sa110_cycles += r.cycles;
    });
  }
  if (!fill) {
    setup.errors = errors.take();
    return setup;
  }
  pipeline::ThreadPool pool(jobs);
  if (tracer != nullptr) {
    for (std::size_t s = 0; s < nsrc; ++s) {
      pool.submit([&, s] {
        guarded(errors, "frontend/" + plan.sources[s].name, [&] {
          LayerCounts local;
          modules[s] = front_and_opt(SpanSite{tracer, 0, -1}, plan.sources[s].text,
                                     pipeline::CodegenOptions{}.opt, local);
          std::lock_guard<std::mutex> lock(counts_mu);
          setup.counts += local;
        });
      });
    }
    pool.wait();
  }
  for (std::size_t s = 0; s < nsrc; ++s) {
    for (std::size_t c = 0; c < ncg; ++c) {
      pool.submit([&, s, c] {
        const Source& src = plan.sources[s];
        const ProcessorConfig& cfg = plan.codegen[c];
        guarded(errors, "fill " + src.name + "/" + cfg.summary(), [&] {
          const int point = static_cast<int>(s * ncg + c);
          const SpanSite at{tracer, 0, point};
          const Program program = compile_program(at, *service, src.text, cfg);
          setup.reference[s * ncg + c] = canonical_bytes(program);
          if (tracer == nullptr) return;
          LayerCounts local;
          backend::BackendOptions options;
          options.stack_top = static_cast<std::uint32_t>(plan.sim.mem_size);
          const CompiledPoint cp = compile_stages(at, modules[s], cfg, options, local);
          if (cp.asm_text != service->compile_asm(src.text, cfg)) {
            throw Error("per-stage assembly differs from the pipeline's");
          }
          if (canonical_bytes(cp.program) != setup.reference[s * ncg + c]) {
            throw Error("per-stage Program differs from the pipeline's");
          }
          std::lock_guard<std::mutex> lock(counts_mu);
          setup.counts += local;
        });
      });
    }
  }
  pool.wait();
  setup.errors = errors.take();
  return setup;
}

// ---------------------------------------------------------------- passes

/// The source texts pass `index` submits. A cold pass starts every
/// source with a comment naming the pass. The programs do not change,
/// but their store keys do, and so does the order in which run_batch
/// schedules its compile tasks. The long compiles of the generated
/// program then land at different places in each pass, and the median
/// over passes does not hang on the one task order a seed happens to
/// give.
std::vector<std::string> pass_texts(Kind kind, const Plan& plan,
                                    const char* tag, int index) {
  std::vector<std::string> texts;
  for (const Source& s : plan.sources) {
    texts.push_back(kind == Kind::ColdSweep
                        ? "// perfbench " + std::string(tag) + " " +
                              std::to_string(index) + "\n" + s.text
                        : s.text);
  }
  return texts;
}

struct PassResult {
  double seconds = 0;
  std::size_t points = 0;
  std::size_t failed = 0;
  std::uint64_t epic_cycles = 0;
  std::uint64_t sa110_cycles = 0;  ///< simulated in the pass (sim_long)
  std::vector<std::uint64_t> point_cycles;  ///< per (source, config)
  std::vector<std::uint64_t> sarm_cycles;   ///< per source (sim_long)
  pipeline::ServiceStats stats;
  std::vector<std::string> errors;
};

/// Runs the SA-110 baseline of every paper source on `jobs` threads.
void run_sarm_points(const Setup& setup, unsigned jobs, Tracer* tracer,
                     std::uint32_t parent, PassResult& r, LayerCounts* counts,
                     Errors& errors) {
  const Plan& plan = setup.plan;
  sarm::SarmOptionsSim options;
  options.max_cycles = plan.sim.max_cycles;
  r.sarm_cycles.assign(plan.sources.size(), 0);
  std::vector<LayerCounts> local(plan.sources.size());
  {
    pipeline::ThreadPool pool(jobs);
    for (std::size_t s = 0; s < plan.sources.size(); ++s) {
      pool.submit([&, s] {
        const int point = static_cast<int>(plan.sources.size() * plan.grid.size() + s);
        Span span(tracer, "point", parent, point);
        guarded(errors, "SA-110/" + plan.sources[s].name, [&] {
          const SimResult res =
              sarm_run(SpanSite{tracer, span.id(), point},
                       setup.sarm_programs[s], options, local[s]);
          if (res.output_hash != plan.sources[s].golden_hash) {
            throw Error("output differs from the native golden stream");
          }
          r.sarm_cycles[s] = res.cycles;
        });
      });
    }
    pool.wait();
  }
  for (std::size_t s = 0; s < plan.sources.size(); ++s) {
    r.sa110_cycles += r.sarm_cycles[s];
    if (counts != nullptr) *counts += local[s];
  }
}

std::string pass_store(const Args& args, const char* tag, int index) {
  return (fs::path(args.work_dir) / (std::string(tag) + std::to_string(index))).string();
}

/// One untraced timed pass: a whole request through run_batch.
PassResult run_pass(Kind kind, const Setup& setup, const Args& args,
                    unsigned jobs, int index) {
  const Plan& plan = setup.plan;
  PassResult r;
  const std::vector<std::string> texts = pass_texts(kind, plan, "pass", index);

  const bool cold = kind == Kind::ColdSweep;
  const std::string dir = pass_store(args, "pass-", index);
  fs::remove_all(dir);
  // Cold: a fresh store per pass. Warm: the filled store, with the
  // result cache pointed at an empty file so every point simulates.
  const pipeline::Options options =
      cold ? service_options(plan, jobs, dir, "")
           : service_options(plan, jobs, setup.store_dir, dir + ".results");
  Errors errors;

  const std::uint64_t t0 = now_ns();
  std::vector<pipeline::RunOutcome> outcomes;
  {
    pipeline::Service service(options);
    outcomes = service.run_batch(texts, plan.grid);
    r.stats = service.stats();
  }
  if (kind == Kind::SimLong) run_sarm_points(setup, jobs, nullptr, 0, r, nullptr, errors);
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;

  r.points = outcomes.size() + r.sarm_cycles.size();
  r.point_cycles.resize(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const pipeline::RunOutcome& o = outcomes[i];
    const Source& src = plan.sources[i / plan.grid.size()];
    const std::string where =
        src.name + "/" + plan.grid[i % plan.grid.size()].summary();
    if (!o.ok) {
      errors.add(where + ": " + o.error);
    } else if (o.output_hash != src.golden_hash) {
      errors.add(where + ": output differs from the golden stream");
    }
    r.point_cycles[i] = o.cycles;
    r.epic_cycles += o.cycles;
  }
  if (!cold && r.stats.compiles() != 0) {
    errors.add("warm pass recompiled: compiles() = " +
               std::to_string(r.stats.compiles()));
  }
  r.errors = errors.take();
  r.failed = r.errors.size();
  fs::remove_all(dir + ".results");
  return r;
}

/// After timing: reads every point's Program back from the store the
/// request left behind, sums its encoded size and checks it against the
/// cold compile (warm workloads) without compiling anything.
std::uint64_t verify_programs(Kind kind, const Setup& setup, const Args& args,
                              std::vector<std::string>& errors) {
  const Plan& plan = setup.plan;
  const std::string dir = kind == Kind::ColdSweep ? pass_store(args, "pass-", 0)
                                                  : setup.store_dir;
  pipeline::Service service(service_options(plan, 1, dir, ""));
  const std::vector<std::string> texts = pass_texts(kind, plan, "pass", 0);
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < plan.sources.size(); ++s) {
    for (const ProcessorConfig& cfg : plan.grid) {
      const Program program = service.compile_program(texts[s], cfg);
      bytes += serial::encode_program(program).size();
      if (kind != Kind::ColdSweep &&
          canonical_bytes(program) !=
              setup.reference[s * plan.codegen.size() + codegen_index(plan, cfg)]) {
        errors.push_back(plan.sources[s].name + "/" + cfg.summary() +
                         ": store Program differs from the cold compile");
      }
    }
  }
  if (service.stats().compiles() != 0) {
    errors.push_back("store did not serve every Program");
  }
  return bytes;
}

/// One replay pass: the request replayed outside-in on `jobs` threads,
/// one task per design point, with a span around each layer call. A
/// null tracer gives the same replay without spans, the baseline of the
/// tracing overhead.
PassResult run_traced_pass(Kind kind, const Setup& setup, const Args& args,
                           unsigned jobs, int index, Tracer* tracer,
                           LayerCounts& counts) {
  const Plan& plan = setup.plan;
  const std::size_t nsrc = plan.sources.size();
  const std::size_t ncfg = plan.grid.size();
  PassResult r;
  r.point_cycles.assign(nsrc * ncfg, 0);
  Errors errors;
  std::mutex counts_mu;
  const bool cold = kind == Kind::ColdSweep;
  const std::string dir = pass_store(args, "traced-", index);
  fs::remove_all(dir);
  backend::BackendOptions backend_options;
  backend_options.stack_top = static_cast<std::uint32_t>(plan.sim.mem_size);
  const std::vector<std::string> texts = pass_texts(kind, plan, "traced pass", index);

  if (tracer != nullptr) tracer->set_context(Phase::Pass, index);
  const std::uint64_t t0 = now_ns();
  {
    Span pass_span(tracer, "pass");
    pipeline::Service service(
        service_options(plan, 1, cold ? dir : setup.store_dir, ""));
    std::vector<ir::Module> modules(nsrc);
    pipeline::ThreadPool pool(jobs);
    if (cold) {
      for (std::size_t s = 0; s < nsrc; ++s) {
        pool.submit([&, s] {
          Span span(tracer, "source", pass_span.id());
          guarded(errors, "frontend/" + plan.sources[s].name, [&] {
            LayerCounts local;
            modules[s] = front_and_opt(SpanSite{tracer, span.id(), -1}, texts[s],
                                       pipeline::CodegenOptions{}.opt, local);
            std::lock_guard<std::mutex> lock(counts_mu);
            counts += local;
          });
        });
      }
      pool.wait();
    }
    for (std::size_t s = 0; s < nsrc; ++s) {
      for (std::size_t c = 0; c < ncfg; ++c) {
        pool.submit([&, s, c] {
          const Source& src = plan.sources[s];
          const ProcessorConfig& cfg = plan.grid[c];
          const int point = static_cast<int>(s * ncfg + c);
          Span span(tracer, "point", pass_span.id(), point);
          const SpanSite at{tracer, span.id(), point};
          guarded(errors, src.name + "/" + cfg.summary(), [&] {
            LayerCounts local;
            Program program = compile_program(at, service, texts[s], cfg);
            if (cold) {
              // The same compile, stage by stage; its assembly must match
              // the pipeline's byte for byte.
              const CompiledPoint cp =
                  compile_stages(at, modules[s], cfg, backend_options, local);
              if (cp.asm_text != service.compile_asm(texts[s], cfg)) {
                throw Error("per-stage assembly differs from the pipeline's");
              }
              if (cp.bytes != serial::encode_program(program)) {
                throw Error("per-stage Program differs from the pipeline's");
              }
            } else {
              const std::vector<std::uint8_t> bytes = canonical_bytes(program);
              if (bytes != setup.reference[s * plan.codegen.size() +
                                           codegen_index(plan, cfg)]) {
                throw Error("store Program differs from the cold compile");
              }
              program = decode(at, bytes);
              program.config = cfg;
            }
            const SimResult res =
                simulate(at, std::move(program), plan.sim, local);
            if (res.output_hash != src.golden_hash) {
              throw Error("output differs from the golden stream");
            }
            r.point_cycles[static_cast<std::size_t>(point)] = res.cycles;
            std::lock_guard<std::mutex> lock(counts_mu);
            counts += local;
          });
        });
      }
    }
    pool.wait();
    if (kind == Kind::SimLong) {
      run_sarm_points(setup, jobs, tracer, pass_span.id(), r, &counts, errors);
    }
  }
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.points = nsrc * ncfg + r.sarm_cycles.size();
  for (const std::uint64_t c : r.point_cycles) r.epic_cycles += c;
  r.errors = errors.take();
  r.failed = r.errors.size();
  fs::remove_all(dir);
  return r;
}

// ---------------------------------------------------------------- output

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + quote(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string stats_json(const std::vector<double>& v) {
  return "{\"median\": " + num(median(v)) + ", \"p25\": " + num(quantile(v, 0.25)) +
         ", \"p75\": " + num(quantile(v, 0.75)) + ", \"n\": " +
         std::to_string(v.size()) + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num_, double den) { return den == 0 ? 0 : num_ / den; }

/// Per-layer metrics of the traced run. Times and counts cover one
/// request: the set-up plus one traced pass (the median pass for times).
std::vector<Metric> per_layer_metrics(const std::vector<SpanRecord>& spans,
                                      int traced_passes,
                                      const LayerCounts& counts,
                                      const pipeline::ServiceStats& stats,
                                      double traced_pps, double replay_pps) {
  const std::map<std::string, double> setup = busy_ms(spans, Phase::Setup, -1);
  std::vector<std::map<std::string, double>> passes;
  for (int p = 0; p < traced_passes; ++p) {
    passes.push_back(busy_ms(spans, Phase::Pass, p));
  }
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto pass_median = [&](const char* layer) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(get(p, layer));
    return median(v);
  };
  const auto layer = [&](const char* name) { return get(setup, name) + pass_median(name); };

  const char* const kCompile[] = {"frontend", "opt", "backend.lower",
                                  "backend.regalloc", "backend.schedule",
                                  "backend.emit", "asmtool.assemble",
                                  "serial.encode"};
  double compile_ms = 0;
  for (const char* l : kCompile) compile_ms += layer(l);
  const char* const kBackend[] = {"backend.lower", "backend.regalloc",
                                  "backend.schedule", "backend.emit"};
  // Shares of the timed pass: layer busy time over the summed duration
  // of the pass's per-source and per-point tasks (its serial time).
  std::vector<double> backend_share;
  std::vector<double> sim_share;
  for (const auto& p : passes) {
    const double total = get(p, "point") + get(p, "source");
    double backend = 0;
    for (const char* l : kBackend) backend += get(p, l);
    backend_share.push_back(ratio(backend, total));
    sim_share.push_back(ratio(get(p, "sim.construct") + get(p, "sim.run") +
                                  get(p, "sarm.run"),
                              total));
  }
  std::uint64_t store_hits = 0;
  std::uint64_t store_total = 0;
  for (const pipeline::GranularityStats* g :
       {&stats.store.ir, &stats.store.assembly, &stats.store.program,
        &stats.store.lint, &stats.store.ir_lint}) {
    store_hits += g->hits;
    store_total += g->hits + g->misses;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double sim_run_ms = layer("sim.run");
  const double sarm_run_ms = layer("sarm.run");
  return {
      {"frontend.busy_ms", layer("frontend"), "ms"},
      {"frontend.ir_insts", d(counts.ir_insts), "count"},
      {"opt.busy_ms", layer("opt"), "ms"},
      {"opt.copy_propagate_ms", layer("opt.copy_propagate"), "ms"},
      {"opt.ir_insts_after", d(counts.ir_insts_after), "count"},
      {"backend.lower_ms", layer("backend.lower"), "ms"},
      {"backend.regalloc_ms", layer("backend.regalloc"), "ms"},
      {"backend.schedule_ms", layer("backend.schedule"), "ms"},
      {"backend.emit_ms", layer("backend.emit"), "ms"},
      {"backend.mops", d(counts.mops), "count"},
      {"backend.max_block_ops", d(counts.max_block_ops), "count"},
      {"backend.regalloc_added_ops", static_cast<double>(counts.regalloc_added_ops), "count"},
      {"backend.bundles", d(counts.bundles), "count"},
      {"backend.slot_fill", ratio(d(counts.useful_ops), d(counts.issue_slots)), "ratio"},
      {"asmtool.assemble_ms", layer("asmtool.assemble"), "ms"},
      {"serial.encode_ms", layer("serial.encode"), "ms"},
      {"serial.decode_ms", layer("serial.decode"), "ms"},
      {"serial.program_bytes", d(counts.program_bytes), "count"},
      {"pipeline.compile_program_ms", layer("pipeline.compile_program"), "ms"},
      {"pipeline.store_hit_ratio", ratio(d(store_hits), d(store_total)), "ratio"},
      {"pipeline.result_hit_ratio",
       ratio(d(stats.result_hits), d(stats.result_hits + stats.result_misses)), "ratio"},
      {"pipeline.compiles", d(stats.compiles()), "count"},
      {"pipeline.simulations", d(stats.simulations), "count"},
      {"pipeline.sim_dedup_hits", d(stats.sim_dedup_hits), "count"},
      {"sim.construct_ms", layer("sim.construct"), "ms"},
      {"sim.threaded_blocks", d(counts.threaded_blocks), "count"},
      {"sim.cold_step_ratio", ratio(d(counts.cold_steps), d(counts.sim_bundles_issued)), "ratio"},
      {"sim.run_ms", sim_run_ms, "ms"},
      {"sim.mcycles_per_s", ratio(d(counts.sim_cycles) / 1e3, sim_run_ms), "Mcycles/s"},
      {"sim.fallback_ratio", ratio(d(counts.fallback_bundles), d(counts.sim_bundles_issued)), "ratio"},
      {"sim.ilp", ratio(d(counts.sim_ops_committed), d(counts.sim_cycles)), "ops/cycle"},
      {"sim.stall_share", ratio(d(counts.sim_stall_cycles), d(counts.sim_cycles)), "ratio"},
      {"sarm.compile_ms", layer("sarm.compile"), "ms"},
      {"sarm.run_ms", sarm_run_ms, "ms"},
      {"sarm.mcycles_per_s", ratio(d(counts.sarm_cycles) / 1e3, sarm_run_ms), "Mcycles/s"},
      {"trace.overhead_points_per_s", traced_pps - replay_pps, "1/s"},
      {"trace.schedule_compile_share", ratio(layer("backend.schedule"), compile_ms), "ratio"},
      {"trace.backend_pass_share", median(backend_share), "ratio"},
      {"trace.sim_pass_share", median(sim_share), "ratio"},
  };
}

std::string table1_json(const Setup& setup, const PassResult& pass) {
  const Plan& plan = setup.plan;
  std::ostringstream out;
  out << "{\"columns\": [";
  for (std::size_t s = 0; s < plan.sources.size(); ++s) {
    out << (s ? ", " : "") << quote(plan.sources[s].name);
  }
  out << "], \"rows\": {\"SA-110\": [";
  for (std::size_t s = 0; s < pass.sarm_cycles.size(); ++s) {
    out << (s ? ", " : "") << pass.sarm_cycles[s];
  }
  out << "]";
  for (std::size_t c = 0; c < plan.grid.size(); ++c) {
    out << ", \"EPIC " << plan.grid[c].num_alus << " ALU\": [";
    for (std::size_t s = 0; s < plan.sources.size(); ++s) {
      out << (s ? ", " : "") << pass.point_cycles[s * plan.grid.size() + c];
    }
    out << "]";
  }
  out << "}}";
  return out.str();
}

int usage(const std::string& message) {
  std::cerr << "cepic-perfbench: " << message << "\n"
            << "usage: cepic-perfbench --workload cold_sweep|warm_resim|sim_long"
               " --seed N --seconds S --trace 0|1 [--jobs J] [--work-dir DIR]"
               " [--results FILE] [--trace-out FILE]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      error = arg + " needs a value";
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") a.workload = v;
      else if (arg == "--seed") a.seed = std::stoull(v);
      else if (arg == "--seconds") a.seconds = std::stod(v);
      else if (arg == "--trace") a.trace = std::stoi(v) != 0;
      else if (arg == "--jobs") a.jobs = static_cast<unsigned>(std::stoul(v));
      else if (arg == "--work-dir") a.work_dir = v;
      else if (arg == "--results") a.results_file = v;
      else if (arg == "--trace-out") a.trace_file = v;
      else {
        error = "unknown flag " + arg;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + arg + ": " + v;
      return false;
    }
  }
  if (a.workload == "cold_sweep") a.kind = Kind::ColdSweep;
  else if (a.workload == "warm_resim") a.kind = Kind::WarmResim;
  else if (a.workload == "sim_long") a.kind = Kind::SimLong;
  else {
    error = "unknown workload '" + a.workload + "'";
    return false;
  }
  if (!(a.seconds > 0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage(error);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::cerr << "cepic-perfbench: built as CMAKE_BUILD_TYPE='" << build_type
              << "' (or without NDEBUG), not Release; its timings are not "
                 "comparable. Rebuild with -DCMAKE_BUILD_TYPE=Release.\n";
    return 2;
  }
  if (SimOptions{}.mem_size != backend::BackendOptions{}.stack_top) {
    // run_batch derives the stack top from mem_size while
    // compile_program uses BackendOptions::stack_top; the set-up fill
    // and the verifier rely on both naming the same store artifacts.
    std::cerr << "cepic-perfbench: SimOptions::mem_size and "
                 "BackendOptions::stack_top disagree\n";
    return 2;
  }

  const unsigned nproc = pipeline::ThreadPool::hardware_jobs();
  const unsigned jobs = args.jobs != 0 ? args.jobs : std::min(kJobs, nproc);
  // A traced run sets up once: its per-layer figures cover one request.
  const int setup_reps = args.trace ? 1 : args.kind == Kind::ColdSweep ? 5 : 3;
  fs::create_directories(args.work_dir);

  std::cout << "perfbench: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " jobs=" << jobs << " nproc=" << nproc
            << " build=" << build_type << " compiler=" << PERFBENCH_COMPILER
            << "\n";

  std::vector<std::string> errors;
  std::optional<Tracer> tracer;
  if (args.trace) tracer.emplace();
  Tracer* tp = tracer ? &*tracer : nullptr;
  // While the benchmark's own spans are recorded, so are the program's
  // obs spans; opt.copy_propagate_ms is read from them.
  obs::set_enabled(args.trace);

  // Set-up, several times; the last one serves the passes.
  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (!setup.store_dir.empty()) fs::remove_all(setup.store_dir);
    const std::uint64_t t0 = now_ns();
    setup = run_setup(args.kind, args, jobs, rep, tp);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  errors.insert(errors.end(), setup.errors.begin(), setup.errors.end());
  obs::set_enabled(false);

  // Timed passes, closed loop. A traced run spends a quarter of its time
  // on run_batch passes (the ServiceStats counters and the cycle
  // reference) and the rest on pairs of replays, one traced and one
  // without spans, whose difference is the tracing overhead.
  const double untraced_budget = args.trace ? args.seconds / 4 : args.seconds;
  const std::size_t min_passes = args.trace ? 1 : 3;
  std::vector<PassResult> passes;
  {
    const std::uint64_t t0 = now_ns();
    while (passes.size() < min_passes ||
           static_cast<double>(now_ns() - t0) / 1e9 < untraced_budget) {
      passes.push_back(run_pass(args.kind, setup, args, jobs,
                                static_cast<int>(passes.size())));
      if (passes.size() > 1) {
        fs::remove_all(pass_store(args, "pass-", static_cast<int>(passes.size()) - 1));
      }
    }
  }
  std::vector<PassResult> traced;
  std::vector<PassResult> replays;
  LayerCounts pass_counts;
  if (tp != nullptr) {
    const std::uint64_t t0 = now_ns();
    while (traced.empty() ||
           static_cast<double>(now_ns() - t0) / 1e9 < args.seconds - untraced_budget) {
      const int index = static_cast<int>(traced.size());
      LayerCounts counts;
      obs::set_enabled(true);
      traced.push_back(run_traced_pass(args.kind, setup, args, jobs, index, tp, counts));
      obs::set_enabled(false);
      if (index == 0) pass_counts = counts;
      LayerCounts unused;
      replays.push_back(run_traced_pass(args.kind, setup, args, jobs, index, nullptr, unused));
    }
  }

  const std::uint64_t code_bytes = verify_programs(args.kind, setup, args, errors);
  fs::remove_all(pass_store(args, "pass-", 0));
  if (!setup.store_dir.empty()) fs::remove_all(setup.store_dir);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> pps;
  std::vector<double> mcps;
  std::vector<double> pass_s;
  for (const PassResult& p : passes) {
    attempted += p.points;
    failed += std::min(p.failed, p.points);
    pps.push_back(static_cast<double>(p.points) / p.seconds);
    // Only cycles simulated inside the pass: SA-110 counts on sim_long.
    mcps.push_back(static_cast<double>(p.epic_cycles + p.sa110_cycles) / p.seconds / 1e6);
    pass_s.push_back(p.seconds);
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  }
  const auto replayed = [&](const std::vector<PassResult>& list) {
    std::vector<double> out;
    for (const PassResult& p : list) {
      attempted += p.points;
      failed += std::min(p.failed, p.points);
      out.push_back(static_cast<double>(p.points) / p.seconds);
      errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    }
    return out;
  };
  const std::vector<double> traced_pps = replayed(traced);
  const std::vector<double> replay_pps = replayed(replays);
  // Exact metrics must not depend on the pass: every pass, traced or
  // not, simulates the same points to the same cycle counts.
  const PassResult& first = passes.front();
  for (const PassResult& p : passes) {
    if (p.point_cycles != first.point_cycles || p.sa110_cycles != first.sa110_cycles) {
      errors.push_back("cycle counts differ between passes");
    }
  }
  for (const std::vector<PassResult>* list : {&traced, &replays}) {
    for (const PassResult& p : *list) {
      if (p.point_cycles != first.point_cycles || p.sa110_cycles != first.sa110_cycles) {
        errors.push_back("replay cycle counts differ from the run_batch ones");
      }
    }
  }
  const bool correct = errors.empty();
  // A failed gate with no failed point still fails the run.
  if (!correct && failed == 0) failed = 1;

  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"points_per_s", median(pps), "1/s"},
      {"host_mcycles_per_s", median(mcps), "Mcycles/s"},
      {"epic_cycles", static_cast<double>(first.epic_cycles), "cycles"},
      // cold_sweep and warm_resim run the SA-110 baseline in set-up.
      {"sa110_cycles",
       static_cast<double>(args.kind == Kind::SimLong ? first.sa110_cycles
                                                      : setup.sa110_cycles),
       "cycles"},
      {"code_bytes", static_cast<double>(code_bytes), "bytes"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::vector<Metric> layers;
  std::string trace_summary = "null";
  if (tp != nullptr) {
    const std::vector<SpanRecord> spans =
        with_program_spans(tp->spans(), obs::Registry::instance().spans(),
                           "copy_propagate", "opt", "opt", "opt.copy_propagate");
    LayerCounts counts = setup.counts;
    counts += pass_counts;
    layers = per_layer_metrics(spans, static_cast<int>(traced.size()), counts,
                               first.stats, median(traced_pps), median(replay_pps));
    const std::string chrome = tp->to_chrome_json(spans);
    std::vector<double> point_ms;
    for (const SpanRecord& s : spans) {
      if (s.layer == "point") point_ms.push_back(s.ms());
    }
    std::ostringstream ts;
    ts << "{\"spans\": " << spans.size()
       << ", \"traced_points_per_s\": " << stats_json(traced_pps)
       << ", \"replay_points_per_s\": " << stats_json(replay_pps)
       << ", \"untraced_points_per_s\": " << stats_json(pps)
       << ", \"point_latency_ms\": {\"median\": " << num(median(point_ms))
       << ", \"p90\": " << num(quantile(point_ms, 0.9))
       << ", \"max\": " << num(quantile(point_ms, 1.0))
       << ", \"n\": " << point_ms.size() << "}, \"self_ms\": {";
    bool first_layer = true;
    for (const obs::report::SpanAgg& agg :
         obs::report::aggregate_spans(obs::json::parse(chrome))) {
      ts << (first_layer ? "" : ", ") << quote(agg.name) << ": " << num(agg.self / 1e3);
      first_layer = false;
    }
    ts << "}}";
    trace_summary = ts.str();
    if (!args.trace_file.empty()) std::ofstream(args.trace_file) << chrome;
  }

  // Human-readable report, then the machine-readable last line.
  for (const Metric& m : e2e) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << "  points_per_s quartiles: p25=" << num(quantile(pps, 0.25))
            << " p75=" << num(quantile(pps, 0.75)) << " n=" << pps.size()
            << " passes; setup_s n=" << setup_s.size() << "\n"
            << "  failed_ratio = "
            << num(ratio(static_cast<double>(failed), static_cast<double>(attempted)))
            << " (" << failed << "/" << attempted << " points)\n";
  for (const Metric& m : layers) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::cout << "  ERROR " << errors[i] << "\n";
  }

  if (!args.results_file.empty()) {
    std::ofstream out(args.results_file);
    out << "{\n\"workload\": " << quote(args.workload)
        << ",\n\"seed\": " << args.seed << ",\n\"seconds\": " << num(args.seconds)
        << ",\n\"trace\": " << (args.trace ? 1 : 0)
        << ",\n\"provenance\": {\"nproc\": " << nproc << ", \"jobs\": " << jobs
        << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
        << ", \"build_type\": " << quote(build_type) << "}"
        << ",\n\"correct\": " << (correct ? "true" : "false")
        << ",\n\"attempted\": " << attempted << ",\n\"failed\": " << failed
        << ",\n\"failed_ratio\": "
        << num(ratio(static_cast<double>(failed), static_cast<double>(attempted)))
        << ",\n\"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      out << (i ? ", " : "") << quote(errors[i]);
    }
    out << "],\n\"end_to_end\": " << metrics_json(e2e)
        << ",\n\"per_layer\": " << metrics_json(layers)
        << ",\n\"points_per_s\": " << stats_json(pps)
        << ",\n\"setup_s\": " << stats_json(setup_s)
        << ",\n\"pass_s\": " << stats_json(pass_s)
        << ",\n\"trace_summary\": " << trace_summary
        << ",\n\"table1\": "
        << (args.kind == Kind::SimLong ? table1_json(setup, first) : "null")
        << "\n}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(args.trace ? layers : e2e)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cepic-perfbench: " << e.what() << "\n";
    return 2;
  }
}
