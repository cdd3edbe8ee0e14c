// cepic::pipeline — the unified compile/run surface of the toolchain.
//
// A pipeline::Service owns (a) a content-addressed store of compilation
// artifacts at three granularities (optimised IR as a CEPX binary, the
// assembled Program — the one per-config compile product — and the
// IR-lint report) and (b) a shared thread-pool scheduler
// that runs compile and simulate steps of a batch as separate
// dependency-ordered tasks. Everything —
// explore::run_sweep, the cepic-cc / cepic-sim / cepic-explore tools,
// the benches, the tests — is a client of this API; the historical
// driver:: shim layer is gone (docs/PIPELINE.md records the migration),
// with compile_once()/run_once() below as the one-shot spellings.
//
// ## The options partition (what makes artifact sharing sound)
//
// Options::codegen holds everything that can change the bytes the
// compiler or assembler produce; Options::sim holds everything that can
// only change how an already-assembled Program behaves under
// simulation. Store keys are derived exclusively from the codegen
// partition plus the *codegen-relevant slice* of the ProcessorConfig:
//
//   affects-codegen (keyed):
//     ProcessorConfig: num_alus, num_gprs, num_preds, num_btrs,
//       issue_width, datapath_width, max_regs_per_instr,
//       reg_port_budget, forwarding, load_latency, alu features,
//       custom_ops. (Note: reg_port_budget, forwarding and load_latency
//       feed the backend *scheduler* in this implementation, so unlike
//       on the real hardware they change the emitted bundles and must
//       be keyed.)
//     CodegenOptions: every optimiser flag, backend options, optimize.
//     SimOptions::mem_size — it is the backend's stack top: the Service
//       sets codegen.backend.stack_top from it once, at construction, so
//       every compile (compile_program, compile_asm, run, run_batch)
//       emits a `__start` that fits the Service's own simulator.
//   affects-simulation-only (never keyed into artifacts):
//     ProcessorConfig: pipeline_stages, unified_memory_contention —
//       the compiler, scheduler and assembler never read these, which
//       is why sweep points differing only in them share one compiled
//       Program. ProcessorConfig::codegen_slice() is the normative
//       definition.
//     SimOptions: max_cycles, trace collection.
//
// Violating the partition (e.g. making the backend read
// pipeline_stages) without moving the field into codegen_slice() /
// the key material is a correctness bug: the store would serve stale
// code. tests/test_pipeline.cpp pins the partition down.
//
// There is a second, dual slice: sim_slice() resets the fields the
// *simulator* never reads (num_alus feeds only Mdes::units(), which the
// simulator never calls; max_regs_per_instr feeds only mcheck and the
// assembler's validator). run_batch() uses it to deduplicate
// simulations: two batch items whose compiled Programs have the same
// content (instructions, data image, entry bundle) and whose configs
// have the same sim slice must produce identical outcomes, so only the
// first one runs and the rest share its result
// (ServiceStats::sim_dedup_hits counts them). This fires across compile
// groups — e.g. max_regs_per_instr 4 vs 3 compile separately but
// usually schedule to the same bundles.
//
// Within one compile group the items differ only in simulation-only
// fields, so they share one immutable SimImage (sim/simulator.hpp):
// decoded once, by the group's first simulation, and released with its
// last (ServiceStats::sim_images counts them).
//
// ## Sharing: one per-key once entry
//
// All three kinds of shared work — the optimised IR of a source (keyed
// by IR digest), a simulation (keyed by program content hash and sim
// slice) and a compile group's SimImage — go through one idiom: a map
// node holding a std::once_flag plus either the value or the
// std::exception_ptr its computation raised (Service::Once). The first
// caller computes, concurrent callers of the same key wait for it, and
// every caller then returns the value or rethrows the exception; calls
// on different keys run in parallel. A failed IR build stays stored for
// the Service's lifetime: a CompileError depends only on the source
// text. The once body never throws, and the counters are atomics, so
// no lock is held while work runs and mu_ guards only the module map.
//
// run_batch() does not rely on waiting for a Module: it runs each
// source's first compile group before it queues the source's others
// (docs/PIPELINE.md "The batch scheduler"), so only direct
// compile_program / compile_listing callers can still meet on one (and,
// with a partially warm store, groups behind a store-served first
// group). Callers that parked on a Module or on a group's SimImage are
// counted (ServiceStats::module_waits, image_waits).
//
// ## Determinism contract
//
// Batch outcomes are stored at their (source, config) slot and are pure
// functions of the inputs, so results are byte-identical for any jobs
// count and any cache temperature (cold, warm store, warm result
// cache). tests/test_pipeline.cpp and the CI cache-correctness job
// assert this literally.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/irlint.hpp"
#include "backend/backend.hpp"
#include "core/config.hpp"
#include "core/program.hpp"
#include "ir/ir.hpp"
#include "opt/opt.hpp"
#include "pipeline/result_cache.hpp"
#include "pipeline/store.hpp"
#include "sim/simulator.hpp"

namespace cepic::pipeline {

/// The affects-codegen option partition (see the header comment).
struct CodegenOptions {
  opt::OptOptions opt;
  /// backend.stack_top belongs to the Service: it is set from
  /// SimOptions::mem_size, and a Service refuses any other value.
  backend::BackendOptions backend;
  bool optimize = true;
};

/// One consolidated options struct for the whole pipeline, replacing
/// the old EpicCompileOptions / SimOptions / cache-flag spread.
struct Options {
  /// Affects-codegen: keyed into every store key.
  CodegenOptions codegen;
  /// Affects-simulation-only, except mem_size, which the Service copies
  /// into codegen.backend.stack_top (see header comment).
  SimOptions sim;
  /// Worker threads for run_batch; 0 means "all hardware threads".
  /// Infrastructure — never keyed, never changes any output byte.
  unsigned jobs = 1;
  /// Root of the persistent content-addressed store; empty keeps all
  /// artifact sharing in-memory (within this Service only). Artifacts
  /// live under `<store_dir>/<store_version_tag()>/`.
  std::string store_dir;
  /// Simulation-result cache file. Empty + persistent store => the
  /// default `<store_dir>/<version>/results.cache`; empty + no store
  /// => no result persistence. (Kept separate from the store because
  /// entries are keyed per *simulation*, not per artifact.)
  std::string result_cache_file;
};

/// Counters for `--cache-stats`. compiles() == 0 on a fully warm run is
/// the "zero recompilations" acceptance signal.
struct ServiceStats {
  StoreStats store;                  ///< per-granularity blob hits/misses
  std::uint64_t frontend_runs = 0;   ///< MiniC -> optimised IR executions
  std::uint64_t backend_runs = 0;    ///< IR -> Listing executions
  std::uint64_t module_decodes = 0;  ///< Modules loaded from the binary
                                     ///< store (no reparse, no frontend)
  std::uint64_t simulations = 0;     ///< cycle-level simulations executed
  /// SimImages built: one per compile group that simulates in
  /// run_batch (shared by its simulation-only variants), one per run().
  std::uint64_t sim_images = 0;
  std::uint64_t ir_lint_runs = 0;    ///< IR-level lint executions
  std::uint64_t result_hits = 0;     ///< batch items served from results
  std::uint64_t result_misses = 0;   ///< (the result cache's own counters)
  /// Batch items answered by another item's simulation (same program
  /// content under the same sim_slice()).
  std::uint64_t sim_dedup_hits = 0;
  /// Callers that found a source's optimised IR still being built by
  /// another caller and parked until it was done.
  std::uint64_t module_waits = 0;
  /// Simulate tasks that parked while a sibling built their compile
  /// group's SimImage.
  std::uint64_t image_waits = 0;

  /// Total compilation-stage executions (any stage, any granularity).
  std::uint64_t compiles() const {
    return frontend_runs + backend_runs;
  }
};

/// Fold a ServiceStats snapshot into the global obs::Registry as
/// absolute `pipeline.*` / `store.*` counters, so `--metrics-json` and
/// the unified `--cache-stats` report render from one source of truth.
void publish_stats(const ServiceStats& stats);

class Service {
public:
  /// Sets options.codegen.backend.stack_top from options.sim.mem_size;
  /// throws InternalError if the caller set it to anything else.
  explicit Service(Options options = {});

  const Options& options() const { return options_; }

  /// The codegen-relevant slice of a configuration: `config` with every
  /// affects-simulation-only field reset to its default. Two configs
  /// with equal slices share all compiled artifacts. Same as
  /// ProcessorConfig::codegen_slice(), the normative definition.
  static ProcessorConfig codegen_slice(const ProcessorConfig& config);

  /// The simulation-relevant slice of a configuration: `config` with
  /// every field the simulator never reads reset to its default. Two
  /// batch items whose Programs have the same content and whose configs
  /// have the same slice simulate identically; run_batch() dedupes on
  /// that pair.
  static ProcessorConfig sim_slice(const ProcessorConfig& config);

  // --- single-shot API (replaces the driver:: entry points) ---

  /// MiniC -> optimised IR. Shared across every config; repeated calls
  /// with the same source build the IR once per Service, and a warm
  /// persistent store serves the Module as a packed CEPX binary —
  /// decoded, never reparsed (ServiceStats::module_decodes counts it).
  /// Returns a copy of the shared Module.
  ir::Module compile_module(std::string_view source);

  /// Printed optimised IR. The module is served from the store when
  /// possible (kIr holds it as a CEPX binary) and printed on the way out.
  std::string compile_ir_text(std::string_view source);

  /// IR-level lint (analysis::lint_module) over the optimised module
  /// for `source`. Config-independent — like the kIr artifact it is
  /// keyed by source + optimiser options only — and cached in the store
  /// at Granularity::kIrLint under the IR artifact's digest, so a warm
  /// store serves the report without rebuilding or re-analysing the IR.
  /// The cached blob is werror-independent; `werror` is folded into the
  /// returned report at read time. (Rule filtering is not cached —
  /// callers needing a rule subset should lint the module directly.)
  analysis::LintReport lint_ir(std::string_view source, bool werror = false);

  /// MiniC -> assembly for `config`: the backend's Listing printed by
  /// asmtool::to_text. The text is never stored, so every call runs the
  /// backend (the optimised IR is still shared).
  std::string compile_asm(std::string_view source,
                          const ProcessorConfig& config);

  /// MiniC -> assembled Program for `config`, store-served when
  /// possible. The returned Program always carries the full requested
  /// `config` (store blobs are canonicalised to the codegen slice and
  /// re-stamped on the way out).
  Program compile_program(std::string_view source,
                          const ProcessorConfig& config);

  /// Compile (store-served) and simulate; returns the simulator so
  /// callers can inspect stats, outputs and state. `main`'s return
  /// value is left in r3.
  EpicSimulator run(std::string_view source, const ProcessorConfig& config);

  // --- batch API (the shared scheduler) ---

  /// Compile and simulate every (source, config) pair: outcome of
  /// sources[w] on configs[p] lands at index `w * configs.size() + p`.
  /// One compile task per unique (source, codegen-slice) feeds the
  /// simulate tasks that depend on it through one shared thread pool;
  /// each source's first compile task runs before its others are
  /// queued, largest source first. Items already answered by the
  /// result cache schedule no work at all. The result cache lives as
  /// long as the Service: its file is loaded on the first call and
  /// saved after every call, so a repeated point is answered from
  /// memory. Per-item failures are captured in
  /// the RunOutcome; only infrastructure failures (unwritable
  /// store/cache) escape.
  std::vector<RunOutcome> run_batch(const std::vector<std::string>& sources,
                                    const std::vector<ProcessorConfig>& configs);

  /// Snapshot of all counters since construction.
  ServiceStats stats() const;

  /// Fold the current ServiceStats snapshot into the global
  /// obs::Registry as absolute `pipeline.*` / `store.*` counters, so
  /// `--metrics-json` and the unified `--cache-stats` report see them.
  void publish_stats() const;

private:
  /// Handle of the shared optimised-IR artifact for `source`.
  ArtifactId ir_artifact(std::string_view source) const;
  /// Handle of the Program artifact for `source` on `slice`.
  ArtifactId program_artifact(std::string_view source,
                              const ProcessorConfig& slice) const;
  /// The optimised Module for `source`, built once per Service and held
  /// by its Once entry for the Service's lifetime (compile_module's
  /// body; in-Service callers read it without a copy).
  const ir::Module& shared_module(std::string_view source);
  /// Frontend + backend for `slice` (counts a backend run).
  asmtool::Listing compile_listing(std::string_view source,
                                   const ProcessorConfig& slice);
  std::string result_cache_path() const;

  Options options_;
  Store store_;
  std::string codegen_text_;  ///< canonical codegen-options key material
  ResultCache results_;       ///< simulation outcomes, whole lifetime
  std::once_flag results_loaded_;  ///< file read on the first run_batch

  /// One shared computation (header comment, "Sharing"): get() runs
  /// `make` for the first caller only, then returns its value or
  /// rethrows what it threw. A caller that found the value still being
  /// computed and did not compute it has waited; `waits`, if given,
  /// counts it. Lives in a map node, so its address is stable.
  template <class T>
  struct Once {
    std::once_flag flag;
    std::atomic<bool> done{false};
    T value{};
    std::exception_ptr error;

    template <class Make>
    const T& get(Make&& make, std::atomic<std::uint64_t>* waits = nullptr) {
      const bool was_done = done.load();
      bool ran = false;
      std::call_once(flag, [&] {
        ran = true;
        try {
          value = make();
        } catch (...) {
          error = std::current_exception();
        }
        done = true;
      });
      if (waits && !was_done && !ran) ++*waits;
      if (error) std::rethrow_exception(error);
      return value;
    }
  };

  std::mutex mu_;  ///< guards modules_ (the map, not its entries)
  std::map<std::uint64_t, Once<ir::Module>> modules_;  ///< ir digest -> IR
  std::atomic<std::uint64_t> frontend_runs_{0};
  std::atomic<std::uint64_t> backend_runs_{0};
  std::atomic<std::uint64_t> module_decodes_{0};
  std::atomic<std::uint64_t> simulations_{0};
  std::atomic<std::uint64_t> sim_images_{0};
  std::atomic<std::uint64_t> ir_lint_runs_{0};
  std::atomic<std::uint64_t> sim_dedup_hits_{0};
  std::atomic<std::uint64_t> module_waits_{0};
  std::atomic<std::uint64_t> image_waits_{0};
};

/// One-shot convenience: compile `source` for `config` with a fresh,
/// memory-only Service. For anything that compiles more than once,
/// wants the IR or the persistent store, or runs batches, hold a
/// Service instead. `codegen.backend.stack_top` must keep its default:
/// the Service sets it from the default SimOptions::mem_size.
Program compile_once(std::string_view source, const ProcessorConfig& config,
                     const CodegenOptions& codegen = {});

/// One-shot convenience: compile and simulate with a fresh, memory-only
/// Service; returns the simulator so callers can inspect stats, outputs
/// and state. `main`'s return value is left in r3.
EpicSimulator run_once(std::string_view source, const ProcessorConfig& config,
                       const CodegenOptions& codegen = {},
                       const SimOptions& sim = {});

}  // namespace cepic::pipeline
