#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::obs::report {

namespace {

double number_or(const json::Value& obj, const char* key, double fallback) {
  const json::Value* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::string string_or(const json::Value& obj, const char* key,
                      std::string fallback) {
  const json::Value* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->string : fallback;
}

}  // namespace

// --- span analytics ---------------------------------------------------

std::vector<SpanRow> extract_spans(const json::Value& trace_events) {
  std::vector<SpanRow> rows;
  for (const json::Value& e : trace_events.array) {
    if (!e.is_object()) continue;
    if (string_or(e, "ph", "") != "X") continue;
    SpanRow row;
    row.name = string_or(e, "name", "?");
    row.cat = string_or(e, "cat", "");
    row.tid = static_cast<int>(number_or(e, "tid", 0));
    row.ts = number_or(e, "ts", 0);
    row.dur = number_or(e, "dur", 0);
    row.self = row.dur;
    rows.push_back(std::move(row));
  }
  // Nesting pass per thread: sort by (tid, ts, -dur) so a parent comes
  // before its children, then walk with an enclosing-span stack.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows[a].tid != rows[b].tid) return rows[a].tid < rows[b].tid;
    if (rows[a].ts != rows[b].ts) return rows[a].ts < rows[b].ts;
    return rows[a].dur > rows[b].dur;
  });
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    SpanRow& row = rows[i];
    if (!stack.empty() && rows[stack.front()].tid != row.tid) stack.clear();
    while (!stack.empty() &&
           rows[stack.back()].ts + rows[stack.back()].dur <= row.ts) {
      stack.pop_back();
    }
    if (!stack.empty()) rows[stack.back()].self -= row.dur;
    stack.push_back(i);
  }
  return rows;
}

std::vector<SpanAgg> aggregate_spans(const json::Value& trace_doc) {
  const json::Value* events = trace_doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw Error("no traceEvents array in input");
  }
  std::map<std::string, SpanAgg> by_name;
  for (const SpanRow& row : extract_spans(*events)) {
    const std::string key =
        row.cat.empty() ? row.name : cat(row.cat, ".", row.name);
    SpanAgg& agg = by_name[key];
    agg.name = key;
    agg.self += row.self;
    agg.total += row.dur;
    ++agg.count;
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [key, agg] : by_name) {
    (void)key;
    out.push_back(std::move(agg));
  }
  return out;
}

// --- metrics analytics ------------------------------------------------

std::vector<HistStat> histogram_stats(const json::Value& metrics_doc) {
  std::vector<HistStat> out;
  const json::Value* hists = metrics_doc.find("histograms");
  if (hists == nullptr || !hists->is_object()) return out;
  for (const auto& [name, entry] : hists->object) {
    if (!entry.is_object()) continue;
    HistStat h;
    h.name = name;
    h.count = number_or(entry, "count", 0);
    h.sum = number_or(entry, "sum", 0);
    h.max = number_or(entry, "max", 0);
    h.p50 = number_or(entry, "p50", 0);
    h.p90 = number_or(entry, "p90", 0);
    h.p99 = number_or(entry, "p99", 0);
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(),
            [](const HistStat& a, const HistStat& b) { return a.name < b.name; });
  return out;
}

std::vector<std::pair<std::string, double>> counter_values(
    const json::Value& metrics_doc) {
  std::vector<std::pair<std::string, double>> out;
  const json::Value* counters = metrics_doc.find("counters");
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, value] : counters->object) {
    if (value.is_number()) out.emplace_back(name, value.number);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- cross-run diff ---------------------------------------------------

namespace {

void diff_pairs(
    const std::vector<std::pair<std::string, double>>& a,
    const std::vector<std::pair<std::string, double>>& b, double floor,
    double threshold, bool flag, DiffReport& report) {
  // Both sides are name-sorted; classic merge keyed on name. Entries
  // present on one side only still produce a row (a or b stays 0).
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    DiffRow row;
    if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
      row.name = a[i].first;
      row.a = a[i].second;
      ++i;
    } else if (i >= a.size() || b[j].first < a[i].first) {
      row.name = b[j].first;
      row.b = b[j].second;
      ++j;
    } else {
      row.name = a[i].first;
      row.a = a[i].second;
      row.b = b[j].second;
      ++i;
      ++j;
    }
    if (row.a < floor && row.b < floor) continue;
    row.ratio = row.a > 0 ? row.b / row.a : 0;
    row.regressed = flag && row.a > 0 && row.ratio >= threshold;
    report.rows.push_back(std::move(row));
  }
}

}  // namespace

DiffReport diff_documents(const json::Value& a, const json::Value& b,
                          const DiffOptions& options) {
  const bool a_trace = a.find("traceEvents") != nullptr;
  const bool b_trace = b.find("traceEvents") != nullptr;
  const bool a_metrics = a.find("counters") != nullptr;
  const bool b_metrics = b.find("counters") != nullptr;
  if (a_trace != b_trace || a_metrics != b_metrics) {
    throw Error("diff inputs are of different kinds (trace vs metrics)");
  }
  if (!a_trace && !a_metrics) {
    throw Error(
        "diff inputs are neither traces (traceEvents) nor metrics "
        "(counters) documents");
  }

  DiffReport report;
  if (a_trace) {
    std::vector<std::pair<std::string, double>> sa, sb;
    for (const SpanAgg& agg : aggregate_spans(a)) {
      sa.emplace_back(cat(agg.name, " self(us)"), agg.self);
    }
    for (const SpanAgg& agg : aggregate_spans(b)) {
      sb.emplace_back(cat(agg.name, " self(us)"), agg.self);
    }
    diff_pairs(sa, sb, options.min_self_us, options.ratio_threshold,
               /*flag=*/true, report);
  } else {
    std::vector<std::pair<std::string, double>> ha, hb;
    const auto quantile_rows =
        [](const json::Value& doc,
           std::vector<std::pair<std::string, double>>& out) {
          for (const HistStat& h : histogram_stats(doc)) {
            out.emplace_back(cat(h.name, " p50(ns)"), h.p50);
            out.emplace_back(cat(h.name, " p90(ns)"), h.p90);
            out.emplace_back(cat(h.name, " p99(ns)"), h.p99);
          }
          std::sort(out.begin(), out.end());
        };
    quantile_rows(a, ha);
    quantile_rows(b, hb);
    diff_pairs(ha, hb, options.min_quantile_ns, options.ratio_threshold,
               /*flag=*/true, report);
    // Counter deltas ride along informationally (never flagged: a
    // counter moving is not by itself a latency regression).
    std::vector<std::pair<std::string, double>> ca = counter_values(a);
    std::vector<std::pair<std::string, double>> cb = counter_values(b);
    DiffReport counters;
    diff_pairs(ca, cb, /*floor=*/1.0, options.ratio_threshold,
               /*flag=*/false, counters);
    for (DiffRow& row : counters.rows) {
      if (row.a == row.b) continue;  // unchanged counters are noise
      row.name = cat("counter ", row.name);
      report.rows.push_back(std::move(row));
    }
  }

  for (const DiffRow& row : report.rows) {
    if (row.regressed) ++report.regressions;
  }
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const DiffRow& x, const DiffRow& y) {
                     if (x.regressed != y.regressed) return x.regressed;
                     return x.ratio > y.ratio;
                   });
  return report;
}

// --- bench trajectory -------------------------------------------------

namespace {

double time_unit_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

void parse_benchmarks(const json::Value& doc, BenchRun& run) {
  const json::Value* benchmarks = doc.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) return;
  // With --benchmark_repetitions the median row stands for its
  // benchmark: repetitions can interleave, so it outlasts host drift
  // that one sequential measurement would take in full.
  std::set<std::string> medians;
  for (const json::Value& b : benchmarks->array) {
    if (!b.is_object()) continue;
    const bool aggregate = string_or(b, "run_type", "") == "aggregate";
    if (aggregate && string_or(b, "aggregate_name", "") != "median") continue;
    const std::string name = string_or(b, aggregate ? "run_name" : "name", "");
    if (name.empty() || (!aggregate && medians.count(name) != 0)) continue;
    if (aggregate) medians.insert(name);
    BenchMeasure m;
    m.real_time_ns = number_or(b, "real_time", 0) *
                     time_unit_ns(string_or(b, "time_unit", "ns"));
    // User counters are named as ratios ("sim_cycles/s", "time/half");
    // google-benchmark's own fields carry no '/'.
    for (const auto& [key, value] : b.object) {
      if (value.is_number() && key.find('/') != std::string::npos) {
        m.counters[key] = value.number;
      }
    }
    run.benchmarks[name] = std::move(m);
  }
}

}  // namespace

BenchRun parse_run(const json::Value& doc, std::string label) {
  BenchRun run;
  run.label = std::move(label);
  if (const json::Value* context = doc.find("context");
      context != nullptr && context->is_object()) {
    run.date = string_or(*context, "date", "");
    run.cmake_build_type = string_or(*context, "cmake_build_type", "");
    run.commit = string_or(*context, "git_commit", "");
    if (const json::Value* dirty = context->find("git_dirty");
        dirty != nullptr && dirty->is_bool()) {
      run.git_dirty = dirty->boolean;
    }
  }
  parse_benchmarks(doc, run);
  return run;
}

std::vector<BenchRun> parse_history(const json::Value& doc) {
  const json::Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    throw Error("not a bench history: no \"runs\" array");
  }
  std::vector<BenchRun> out;
  for (const json::Value& entry : runs->array) {
    if (!entry.is_object()) continue;
    BenchRun run = parse_run(entry, string_or(entry, "label", "?"));
    // History entries carry label/commit/date at the top level (the
    // context only echoes build provenance).
    run.commit = string_or(entry, "commit", run.commit);
    run.date = string_or(entry, "date", run.date);
    out.push_back(std::move(run));
  }
  return out;
}

namespace {

// The perf-smoke guard parameters. Kept in one place so CI, the tool
// and the tests all enforce identical gates.
struct GuardPair {
  const char* numerator;
  /// nullptr: a fixed bound on the numerator's own counter, with no
  /// baseline.
  const char* denominator;
  const char* counter;  ///< nullptr: wall-time ratio
  double factor;        ///< floor (rate) or ceiling (time) multiplier
  bool is_floor;
};

constexpr GuardPair kGuards[] = {
    {"BM_EpicSimulator", "BM_EpicSimulatorLegacy", "sim_cycles/s", 0.75,
     true},
    {"BM_EpicSimulator", "BM_EpicSimulatorDecode", "sim_cycles/s", 0.75,
     true},
    // The threaded tier on AES, where static timing (elided scoreboard
    // reads, folded bundle boundaries) pays most.
    {"BM_EpicSimulator/aes", "BM_EpicSimulatorDecode", "sim_cycles/s", 0.75,
     true},
    // The SA-110 baseline simulator, against the EPIC decode tier.
    {"BM_SarmSimulator", "BM_EpicSimulatorDecode", "sim_cycles/s", 0.75,
     true},
    {"BM_Optimize", "BM_Frontend", nullptr, 1.6, false},
    {"BM_EpicBackend", "BM_Frontend", nullptr, 1.6, false},
    // BM_EpicBackend is mostly the printer (to_text) now, so the two
    // stages a cold sweep pays per config are guarded on their own.
    {"BM_Backend/lower", "BM_Frontend", nullptr, 1.6, false},
    {"BM_Backend/schedule", "BM_Frontend", nullptr, 1.6, false},
    // Starting a simulator on a shared image costs what a run touches:
    // a zero fill of its data memory would show here as a ratio jump.
    {"BM_SimStartup/shared_image", "BM_SimStartup/build_image", nullptr, 1.6,
     false},
    // Compile cost per doubling of a straight-line block, each of 1k ->
    // 2k -> 4k -> 8k statements: linear passes stay near 2x, a quadratic
    // one heads for 4x. time/half is timed against the half-size input
    // in the same iterations, so host drift cancels out of it.
    {"BM_CompileScaling/2k", nullptr, "time/half", 2.2, false},
    {"BM_CompileScaling/4k", nullptr, "time/half", 2.2, false},
    {"BM_CompileScaling/8k", nullptr, "time/half", 2.2, false},
    {"BM_CompileScaling/schedule/2k", nullptr, "time/half", 2.2, false},
    {"BM_CompileScaling/schedule/4k", nullptr, "time/half", 2.2, false},
    {"BM_CompileScaling/schedule/8k", nullptr, "time/half", 2.2, false},
    {"BM_CompileScaling/copy_propagate/2k", nullptr, "time/half", 2.2,
     false},
    {"BM_CompileScaling/copy_propagate/4k", nullptr, "time/half", 2.2,
     false},
    {"BM_CompileScaling/copy_propagate/8k", nullptr, "time/half", 2.2,
     false},
};

/// How many recent baseline records a ratio guard takes the median of.
constexpr std::size_t kBaselineRuns = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// The numerator's own counter; false when it is absent.
bool own_counter(const BenchRun& run, const GuardPair& guard, double* out) {
  const auto it = run.benchmarks.find(guard.numerator);
  if (it == run.benchmarks.end()) return false;
  const auto c = it->second.counters.find(guard.counter);
  if (c == it->second.counters.end()) return false;
  *out = c->second;
  return true;
}

/// The pair's ratio within one run; false when either side is absent.
bool pair_ratio(const BenchRun& run, const GuardPair& guard, double* out) {
  const auto num = run.benchmarks.find(guard.numerator);
  const auto den = run.benchmarks.find(guard.denominator);
  if (num == run.benchmarks.end() || den == run.benchmarks.end()) {
    return false;
  }
  double a = 0, b = 0;
  if (guard.counter == nullptr) {
    a = num->second.real_time_ns;
    b = den->second.real_time_ns;
  } else {
    const auto ra = num->second.counters.find(guard.counter);
    const auto rb = den->second.counters.find(guard.counter);
    if (ra == num->second.counters.end() || rb == den->second.counters.end()) {
      return false;
    }
    a = ra->second;
    b = rb->second;
  }
  if (b == 0) return false;
  *out = a / b;
  return true;
}

/// One guard of `fresh` against the baselines in `history`.
RatioCheck check_guard(const GuardPair& guard,
                       std::span<const BenchRun> history,
                       const BenchRun& fresh) {
  RatioCheck check;
  check.fresh_label = fresh.label;
  check.is_floor = guard.is_floor;
  check.fixed = guard.denominator == nullptr;
  if (check.fixed) {
    // Host-independent on its own: no baseline, and a fresh run that
    // lacks the counter skips it.
    check.name = cat(guard.numerator, " (", guard.counter, ")");
    if (own_counter(fresh, guard, &check.fresh)) {
      check.baseline_label = "fixed bound";
      check.limit = guard.factor;
      check.ok = guard.is_floor ? check.fresh >= check.limit
                                : check.fresh <= check.limit;
    }
    return check;
  }
  check.name = cat(guard.numerator, "/", guard.denominator,
                   guard.counter == nullptr ? " (time)" : "");
  // The baseline is the median ratio over the last kBaselineRuns
  // committed release-build runs carrying both benchmarks (older
  // history may predate a benchmark), so no one noisy record sets it.
  std::vector<double> ratios;
  std::string labels;  // oldest first
  for (auto it = history.rbegin();
       it != history.rend() && ratios.size() < kBaselineRuns; ++it) {
    double ratio = 0;
    if (it->release_eligible() && pair_ratio(*it, guard, &ratio)) {
      ratios.push_back(ratio);
      labels = labels.empty() ? it->label : cat(it->label, ", ", labels);
    }
  }
  if (ratios.empty()) return check;  // no baseline yet: skipped, ok
  check.baseline = median(ratios);
  check.baseline_label =
      ratios.size() == 1 ? labels : cat("median of ", labels);
  check.limit = guard.factor * check.baseline;
  if (!pair_ratio(fresh, guard, &check.fresh)) {
    check.ok = false;  // baseline exists but the fresh run lost a side
    return check;
  }
  check.ok = guard.is_floor ? check.fresh >= check.limit
                            : check.fresh <= check.limit;
  return check;
}

}  // namespace

std::vector<RatioCheck> check_ratios(const std::vector<BenchRun>& history,
                                     const BenchRun& fresh) {
  std::vector<RatioCheck> out;
  for (const GuardPair& guard : kGuards) {
    out.push_back(check_guard(guard, history, fresh));
  }
  return out;
}

std::vector<RatioCheck> audit_ratios(const std::vector<BenchRun>& history) {
  std::vector<RatioCheck> out;
  for (const GuardPair& guard : kGuards) {
    // The guard's newest release record that carries what it reads.
    std::size_t at = history.size();
    while (at > 0) {
      const BenchRun& run = history[at - 1];
      double unused = 0;
      if (run.release_eligible() &&
          (guard.denominator == nullptr ? own_counter(run, guard, &unused)
                                        : pair_ratio(run, guard, &unused))) {
        break;
      }
      --at;
    }
    if (at == 0) {  // no record carries it: skipped, like a lost pair
      out.push_back(check_guard(guard, {}, BenchRun{}));
      continue;
    }
    out.push_back(check_guard(
        guard, std::span<const BenchRun>(history.data(), at - 1),
        history[at - 1]));
  }
  return out;
}

}  // namespace cepic::obs::report
