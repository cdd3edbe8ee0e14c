// Parallel design-space exploration engine — the paper's headline
// workflow (§6, Table 1, Figs. 3–5) as a library: take MiniC programs
// and a SweepSpec of processor customisations, compile and simulate
// every (program, point) pair through the shared pipeline::Service
// batch scheduler, fold in the analytic FPGA area/timing/power model,
// and aggregate everything into SweepResults with Pareto-frontier
// extraction (cycles x slices x power) and CSV/JSON export.
//
// Since PR 2 the compile/simulate machinery lives in cepic::pipeline:
// one content-addressed artifact store shares compiled Programs across
// every sweep point whose codegen-relevant configuration slice matches
// (so points differing only in pipeline_stages or memory contention
// compile once), and one thread pool schedules the compile and simulate
// steps of the whole batch as dependency-ordered tasks. This layer only
// adds the FPGA analytics and the export formats.
//
// Determinism contract: results are stored at the point's index in the
// SweepSpec, every metric is a pure function of (source, config), and
// the exporters iterate in index order — so the output is byte-identical
// for any jobs count and for cached vs. freshly simulated points.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "explore/sweep.hpp"
#include "pipeline/pipeline.hpp"

namespace cepic::explore {

/// Outcome of one sweep point: the batch's RunOutcome for it plus the
/// FPGA analytics. When `ok` is false the point failed to compile or
/// simulate and `error` carries the diagnostic; the metric fields are
/// zero. `from_result_cache` is not exported.
struct PointResult : pipeline::RunOutcome {
  ProcessorConfig config;
  std::uint64_t config_hash = 0;

  // Derived analytics (recomputed from config + cycles on every run).
  double slices = 0;
  unsigned block_rams = 0;
  unsigned block_mults = 0;
  double fmax_mhz = 0;
  double time_ms = 0;
  double power_mw = 0;
};

struct SweepResult {
  std::uint64_t source_hash = 0;
  std::vector<PointResult> points;  ///< one per SweepSpec point, in order
  std::size_t cache_hits = 0;       ///< points served from the cache

  /// Indices (ascending) of the Pareto-optimal points under simultaneous
  /// minimisation of cycles, slices and power. Failed points never
  /// appear and never dominate.
  std::vector<std::size_t> pareto_indices() const;

  /// True if `index` is on the Pareto frontier.
  bool is_pareto(std::size_t index) const;

  /// CSV with a fixed header; one row per point in index order.
  std::string to_csv() const;

  /// JSON array of point objects, 2-space indented, in index order.
  std::string to_json() const;
};

/// A batch of sweeps (one per source) that shared a single
/// pipeline::Service — one store, one scheduler, one result cache.
struct SweepBatch {
  std::vector<SweepResult> sweeps;  ///< one per source, in order
  pipeline::ServiceStats stats;     ///< store / compile / simulate counters
};

/// Compile and simulate every source at every point of `spec` through
/// one pipeline::Service built from `options`. Per-point failures
/// (invalid config, compile error, simulation fault) are captured in the
/// corresponding PointResult rather than thrown; only infrastructure
/// failures (unwritable store or cache file) escape.
SweepBatch run_sweep_batch(const std::vector<std::string>& sources,
                           const SweepSpec& spec,
                           const pipeline::Options& options = {});

/// Single-source convenience wrapper around run_sweep_batch.
SweepResult run_sweep(std::string_view source, const SweepSpec& spec,
                      const pipeline::Options& options = {});

}  // namespace cepic::explore
