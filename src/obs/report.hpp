// cepic::obs::report — offline analytics over exported observability
// artifacts, shared between cepic-prof and the unit tests.
//
// Three families of helpers over parsed JSON documents (obs/json.hpp):
//
//  * **Span analytics** on Chrome trace exports: extract the 'X'
//    complete events, compute per-span self time (duration minus
//    same-thread nested children) and aggregate by `cat.name`.
//
//  * **Cross-run diff**: compare two trace exports (per-span self/total
//    time) or two metrics exports (per-histogram quantiles, counters)
//    and flag regressions — rows whose ratio crosses a threshold above
//    a noise floor. `cepic-prof diff A B [--check]` prints/enforces
//    the result.
//
//  * **Bench trajectory**: parse the committed BENCH_toolspeed.json
//    history and raw google-benchmark JSON runs, summarize how each
//    benchmark moved run over run, and enforce the execution-tier and
//    optimiser ratio guards (`cepic-prof bench --check` — the CI
//    perf-smoke gate).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cepic::obs::report {

// --- span analytics ---------------------------------------------------

/// One 'X' event with its computed self time.
struct SpanRow {
  std::string name;
  std::string cat;
  int tid = 0;
  double ts = 0;   ///< microseconds
  double dur = 0;  ///< microseconds
  double self = 0; ///< dur minus same-thread fully-nested children
};

/// Extract complete events from a traceEvents array and fill in self
/// times (nesting resolved per thread by timestamp containment).
std::vector<SpanRow> extract_spans(const json::Value& trace_events);

/// Per-span aggregate over a whole trace document, keyed "cat.name"
/// (bare name when the category is empty), name-sorted.
struct SpanAgg {
  std::string name;
  double self = 0;
  double total = 0;
  std::uint64_t count = 0;
};
std::vector<SpanAgg> aggregate_spans(const json::Value& trace_doc);

// --- metrics analytics ------------------------------------------------

/// One histogram entry of a metrics export.
struct HistStat {
  std::string name;
  double count = 0, sum = 0, max = 0, p50 = 0, p90 = 0, p99 = 0;
};
std::vector<HistStat> histogram_stats(const json::Value& metrics_doc);

/// Name-sorted counter snapshot of a metrics export.
std::vector<std::pair<std::string, double>> counter_values(
    const json::Value& metrics_doc);

// --- cross-run diff ---------------------------------------------------

struct DiffOptions {
  /// Flag a row as regressed when B >= threshold * A (bigger is worse
  /// for every compared quantity: self time, latency quantiles).
  double ratio_threshold = 1.5;
  /// Ignore span rows with both sides' self time below this (us).
  double min_self_us = 100.0;
  /// Ignore histogram quantile rows with both sides below this (ns).
  double min_quantile_ns = 10000.0;
};

struct DiffRow {
  std::string name;     ///< what is compared, e.g. "opt.cse self(us)"
  double a = 0, b = 0;  ///< the two sides
  double ratio = 0;     ///< b / a (0 when a == 0)
  bool regressed = false;
};

struct DiffReport {
  std::vector<DiffRow> rows;  ///< regressed first, then by descending ratio
  unsigned regressions = 0;
};

/// Diff two exports of the same kind: trace vs trace (span self/total
/// time) or metrics vs metrics (histogram quantiles + counters, the
/// latter informational only). Throws cepic::Error when the documents
/// are neither, or of mismatched kinds.
DiffReport diff_documents(const json::Value& a, const json::Value& b,
                          const DiffOptions& options = {});

// --- bench trajectory -------------------------------------------------

/// One benchmark measurement of one run, normalized to nanoseconds.
struct BenchMeasure {
  double real_time_ns = 0;
  std::map<std::string, double> counters;  ///< "sim_cycles/s", "time/half"
};

/// One recorded run (an entry of BENCH_toolspeed.json's "runs", or a
/// raw google-benchmark document).
struct BenchRun {
  std::string label;
  std::string commit;
  std::string date;
  std::string cmake_build_type;
  bool git_dirty = false;
  std::map<std::string, BenchMeasure> benchmarks;

  /// Non-release runs are excluded from ratio baselines.
  bool release_eligible() const {
    return label.find("non-release") == std::string::npos;
  }
};

/// Parse a raw google-benchmark JSON document (one process run). When
/// a benchmark was repeated, its median aggregate row is its measure;
/// other aggregate rows (run_type == "aggregate") are skipped.
BenchRun parse_run(const json::Value& doc, std::string label);

/// Parse the committed history ({"runs":[...]}), oldest first. Throws
/// cepic::Error when the document has no "runs" array.
std::vector<BenchRun> parse_history(const json::Value& doc);

/// One enforced ratio guard (see check_ratios).
struct RatioCheck {
  std::string name;            ///< e.g. "BM_EpicSimulator/BM_EpicSimulatorLegacy"
  std::string fresh_label;     ///< label of the run checked
  /// The baseline run's label, or "median of a, b, c" (oldest first);
  /// empty: no committed baseline, skipped.
  std::string baseline_label;
  double baseline = 0;
  double fresh = 0;
  double limit = 0;
  bool is_floor = true;  ///< fresh must stay >= limit (else <= limit)
  bool fixed = false;    ///< limit is a fixed bound, not baseline-relative
  bool ok = true;
};

/// The perf-smoke gate: the within-process execution-tier and SA-110
/// sim_cycles/s ratios must stay above 0.75x their baseline, and the
/// BM_Optimize/BM_Frontend and
/// BM_EpicBackend/BM_Frontend wall-time ratios below 1.6x. A pair's
/// baseline is the median of its ratio over the last three committed
/// release runs carrying both benchmarks. Fixed guards
/// need no baseline: BM_CompileScaling (whole compile, schedule/ and
/// copy_propagate/) at 2k, 4k and 8k statements may cost at most 2.2x
/// its half-size input (its "time/half" counter is fresh, limit 2.2).
/// `fresh` is typically a freshly recorded run (audit_ratios below
/// audits the committed trajectory itself). Pairs with no baseline
/// (or missing from `fresh`) are reported with an empty baseline_label /
/// fresh of 0 and ok == true (skipped), except that a pair present in
/// the baseline but missing from `fresh` fails.
std::vector<RatioCheck> check_ratios(const std::vector<BenchRun>& history,
                                     const BenchRun& fresh);

/// Audits the committed trajectory itself: each guard checks the
/// newest release-eligible record that carries what it reads (both
/// benchmarks of a pair, or a fixed guard's counter) against baselines
/// from the records before that one. A partial last record thus audits
/// only the guards it carries; the others fall back to older records.
/// A guard no record carries is skipped (empty baseline_label).
std::vector<RatioCheck> audit_ratios(const std::vector<BenchRun>& history);

}  // namespace cepic::obs::report
