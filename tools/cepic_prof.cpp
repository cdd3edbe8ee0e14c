// cepic-prof — offline reporter and cross-run analytics over the
// artifacts the observability layer writes (docs/OBSERVABILITY.md):
// Chrome trace JSON from `--trace-out` / `--timeline-out` /
// `--flight-out`, flat metrics JSON from `--metrics-json`, and the
// committed bench history BENCH_toolspeed.json.
//
//   cepic-prof trace.json               # top spans + per-stage totals
//   cepic-prof trace.json --top 20
//   cepic-prof metrics.json             # counters/gauges/histograms
//   cepic-prof --validate schemas/chrome-trace.schema.json trace.json...
//   cepic-prof diff A.json B.json [--check]
//   cepic-prof bench BENCH_toolspeed.json [--fresh RUN.json] [--check]
//
// `diff` compares two exports of the same kind — traces by per-span
// self time, metrics by per-histogram latency quantiles (counters ride
// along informationally) — and flags rows whose B/A ratio crosses
// `--threshold` above a noise floor; `--check` exits 1 when any row is
// flagged. `bench` prints the committed perf trajectory and, with
// `--check`, enforces the perf-smoke ratio guards (execution-tier
// sim_cycles/s floors, optimiser wall-time ceiling) against `--fresh`
// (a raw google-benchmark JSON run) or the history's own last run.
//
// `--validate SCHEMA` checks each input against a JSON-Schema file
// (src/obs/schema.hpp subset), reports every violation with the JSON
// path of the failing node, and exits 1 if *any* input fails — a file
// that fails to parse counts as failing without aborting the rest.
#include "tool_common.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/schema.hpp"

namespace json = cepic::obs::json;
namespace report = cepic::obs::report;
namespace schema = cepic::obs::schema;
namespace tools = cepic::tools;

namespace {

using cepic::cat;
using cepic::Error;
using cepic::fixed;
using cepic::pad_left;
using cepic::pad_right;

double number_or(const json::Value& obj, const char* key,
                 double fallback) {
  const json::Value* v = obj.find(key);
  return (v != nullptr && v->kind == json::Value::Kind::Number) ? v->number
                                                                : fallback;
}

std::string int_text(double v) {
  return v == static_cast<std::uint64_t>(v)
             ? cat(static_cast<std::uint64_t>(v))
             : fixed(v, 3);
}

void report_trace(const json::Value& doc, unsigned top) {
  const std::vector<report::SpanAgg> aggs = report::aggregate_spans(doc);
  std::uint64_t spans = 0;
  for (const report::SpanAgg& agg : aggs) spans += agg.count;

  std::vector<const report::SpanAgg*> ranked;
  ranked.reserve(aggs.size());
  for (const report::SpanAgg& agg : aggs) ranked.push_back(&agg);
  std::sort(ranked.begin(), ranked.end(),
            [](const report::SpanAgg* a, const report::SpanAgg* b) {
              return a->self > b->self;
            });

  std::cout << "top spans by self time (" << spans << " spans)\n";
  std::cout << pad_right("  span", 34) << pad_left("count", 7)
            << pad_left("self(us)", 12) << pad_left("total(us)", 12) << "\n";
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    const report::SpanAgg& agg = *ranked[i];
    std::cout << pad_right(cat("  ", agg.name), 34)
              << pad_left(cat(agg.count), 7)
              << pad_left(fixed(agg.self, 1), 12)
              << pad_left(fixed(agg.total, 1), 12) << "\n";
  }

  // Per-stage totals: aggregate again by the "cat." prefix.
  struct Agg {
    double self = 0;
    double total = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Agg> by_cat;
  for (const report::SpanAgg& agg : aggs) {
    const std::size_t dot = agg.name.find('.');
    Agg& c = by_cat[dot == std::string::npos ? "(none)"
                                             : agg.name.substr(0, dot)];
    c.self += agg.self;
    c.total += agg.total;
    c.count += agg.count;
  }
  std::cout << "\nper-stage totals\n";
  for (const auto& [name, agg] : by_cat) {
    std::cout << pad_right(cat("  ", name), 34) << pad_left(cat(agg.count), 7)
              << pad_left(fixed(agg.self, 1), 12)
              << pad_left(fixed(agg.total, 1), 12) << "\n";
  }

  // Cache efficiency from the embedded counter snapshot.
  const json::Value* other = doc.find("otherData");
  if (other == nullptr || other->kind != json::Value::Kind::Object) return;
  const auto counter = [&](const std::string& name) {
    return number_or(*other, cat("counter.", name).c_str(), 0);
  };
  const double compiles = counter("pipeline.compiles");
  const double simulations = counter("pipeline.simulations");
  if (compiles == 0 && simulations == 0) return;
  std::cout << "\ncache efficiency\n";
  const auto ratio_line = [&](const char* label, double hits, double misses) {
    const double total = hits + misses;
    std::cout << pad_right(cat("  ", label), 26) << pad_left(cat(hits), 9)
              << " / " << pad_left(cat(total), 9);
    if (total > 0) {
      std::cout << "  (" << fixed(100.0 * hits / total, 1) << "% hit)";
    }
    std::cout << "\n";
  };
  for (const char* g : {"ir", "program", "irlint"}) {
    ratio_line(cat("store.", g).c_str(), counter(cat("store.", g, ".hits")),
               counter(cat("store.", g, ".misses")));
  }
  ratio_line("results", counter("pipeline.result_hits"),
             counter("pipeline.result_misses"));
  std::cout << pad_right("  compiles", 26)
            << pad_left(cat(compiles), 9) << "\n";
  std::cout << pad_right("  simulations", 26)
            << pad_left(cat(simulations), 9) << "\n";
  std::cout << pad_right("  sim images", 26)
            << pad_left(cat(counter("pipeline.sim_images")), 9) << "\n";
  std::cout << pad_right("  sim-dedup hits", 26)
            << pad_left(cat(counter("pipeline.sim_dedup_hits")), 9) << "\n";
}

void report_metrics(const json::Value& doc) {
  for (const char* section : {"counters", "gauges"}) {
    const json::Value* v = doc.find(section);
    if (v == nullptr || v->kind != json::Value::Kind::Object) continue;
    std::cout << section << "\n";
    for (const auto& [name, value] : v->object) {
      std::cout << pad_right(cat("  ", name), 40);
      if (value.kind == json::Value::Kind::Number) {
        std::cout << pad_left(int_text(value.number), 14);
      }
      std::cout << "\n";
    }
  }
  const std::vector<report::HistStat> hists = report::histogram_stats(doc);
  if (hists.empty()) return;
  std::cout << "histograms\n";
  std::cout << pad_right("  name", 30) << pad_left("count", 9)
            << pad_left("p50", 13) << pad_left("p90", 13)
            << pad_left("p99", 13) << pad_left("max", 13) << "\n";
  for (const report::HistStat& h : hists) {
    std::cout << pad_right(cat("  ", h.name), 30)
              << pad_left(int_text(h.count), 9)
              << pad_left(int_text(h.p50), 13)
              << pad_left(int_text(h.p90), 13)
              << pad_left(int_text(h.p99), 13)
              << pad_left(int_text(h.max), 13) << "\n";
  }
}

// --- cepic-prof --validate --------------------------------------------

int run_validate(const std::string& schema_path,
                 const std::vector<std::string>& paths) {
  const json::Value schema = json::parse(tools::read_file(schema_path));
  int failures = 0;
  for (const std::string& path : paths) {
    json::Value doc;
    try {
      doc = json::parse(tools::read_file(path));
    } catch (const std::exception& e) {
      std::cerr << path << ": FAIL (unreadable/unparsable): " << e.what()
                << "\n";
      ++failures;
      continue;
    }
    const std::vector<std::string> violations = schema::validate(schema, doc);
    if (violations.empty()) {
      std::cout << path << ": valid against " << schema_path << "\n";
      continue;
    }
    for (const std::string& v : violations) {
      std::cerr << path << ": " << v << "\n";
    }
    // Violations are "<json-path>: <rule>" — lead the summary with the
    // first failing node's path so CI logs point straight at it.
    const std::string& first = violations.front();
    const std::size_t colon = first.find(": ");
    std::cerr << path << ": FAIL at "
              << (colon == std::string::npos ? first
                                             : first.substr(0, colon))
              << " (" << violations.size() << " violation(s) against "
              << schema_path << ")\n";
    ++failures;
  }
  if (failures > 0) {
    std::cerr << failures << " of " << paths.size()
              << " input(s) failed validation\n";
  }
  return failures == 0 ? 0 : 1;
}

// --- cepic-prof diff --------------------------------------------------

int run_diff(const std::vector<std::string>& paths, double threshold,
             bool check) {
  if (paths.size() != 2) {
    throw Error("diff expects exactly two inputs: cepic-prof diff A B");
  }
  report::DiffOptions options;
  if (threshold > 0) options.ratio_threshold = threshold;
  const json::Value a = json::parse(tools::read_file(paths[0]));
  const json::Value b = json::parse(tools::read_file(paths[1]));
  const report::DiffReport diff = report::diff_documents(a, b, options);

  std::cout << "diff " << paths[0] << " -> " << paths[1] << " (flagging B >= "
            << fixed(options.ratio_threshold, 2) << "x A)\n";
  std::cout << pad_right("  quantity", 42) << pad_left("A", 13)
            << pad_left("B", 13) << pad_left("B/A", 8) << "\n";
  for (const report::DiffRow& row : diff.rows) {
    std::cout << pad_right(cat("  ", row.name), 42)
              << pad_left(int_text(row.a), 13)
              << pad_left(int_text(row.b), 13)
              << pad_left(row.a > 0 ? fixed(row.ratio, 2) : "new", 8)
              << (row.regressed ? "  REGRESSED" : "") << "\n";
  }
  std::cout << "regressions: " << diff.regressions << "\n";
  return check && diff.regressions > 0 ? 1 : 0;
}

// --- cepic-prof bench -------------------------------------------------

int run_bench(const std::vector<std::string>& paths,
              const std::string& fresh_path, bool check) {
  if (paths.size() != 1) {
    throw Error("bench expects one history file: cepic-prof bench "
                "BENCH_toolspeed.json");
  }
  const std::vector<report::BenchRun> history =
      report::parse_history(json::parse(tools::read_file(paths[0])));
  if (history.empty()) throw Error(cat(paths[0], ": empty bench history"));

  // Trajectory: per benchmark, one column per run (wall time, with the
  // per-run ratio to the previous run carrying it).
  std::cout << "bench trajectory (" << history.size() << " runs)\n";
  for (const report::BenchRun& run : history) {
    std::cout << "  " << run.label << "  [" << run.commit
              << (run.git_dirty ? "+dirty" : "") << "] "
              << (run.date.empty() ? "" : run.date)
              << (run.release_eligible() ? "" : "  (excluded from baselines)")
              << "\n";
  }
  std::map<std::string, double> previous;
  std::cout << "\n" << pad_right("  benchmark", 40) << pad_right("run", 34)
            << pad_left("time(us)", 12) << pad_left("vs prev", 9) << "\n";
  for (const report::BenchRun& run : history) {
    for (const auto& [name, measure] : run.benchmarks) {
      std::cout << pad_right(cat("  ", name), 40)
                << pad_right(run.label.substr(0, 32), 34)
                << pad_left(fixed(measure.real_time_ns / 1e3, 1), 12);
      const auto prev = previous.find(name);
      if (prev != previous.end() && prev->second > 0) {
        std::cout << pad_left(
            cat(fixed(measure.real_time_ns / prev->second, 2), "x"), 9);
      }
      std::cout << "\n";
      previous[name] = measure.real_time_ns;
    }
  }

  // Ratio guards: --fresh checks a new run against the committed
  // baselines; without it each guard audits the newest committed
  // record that carries it against the records before that one.
  const bool audit = fresh_path.empty();
  const std::vector<report::RatioCheck> checks =
      audit ? report::audit_ratios(history)
            : report::check_ratios(
                  history,
                  report::parse_run(
                      json::parse(tools::read_file(fresh_path)), "(fresh)"));
  std::cout << "\nratio guards ("
            << (audit ? "audit: each guard's newest record" : "fresh: (fresh)")
            << ")\n";
  bool failed = false;
  for (const report::RatioCheck& rc : checks) {
    if (rc.baseline_label.empty()) {
      std::cout << "  " << rc.name
                << (rc.fixed ? ": not in the fresh run, skipped\n"
                             : ": no committed baseline, skipped\n");
      continue;
    }
    std::cout << "  " << rc.name << ": ";
    if (audit) std::cout << "record '" << rc.fresh_label << "', ";
    if (!rc.fixed) {
      std::cout << "baseline '" << rc.baseline_label
                << "' = " << fixed(rc.baseline, 3) << ", ";
    }
    std::cout << "fresh = " << fixed(rc.fresh, 3) << " ("
              << (rc.fixed ? "fixed " : "")
              << (rc.is_floor ? "floor " : "ceiling ") << fixed(rc.limit, 3)
              << ") " << (rc.ok ? "ok" : "FAIL") << "\n";
    if (!rc.ok) failed = true;
  }
  if (failed) {
    std::cerr << "bench: ratio guard failed against the committed "
                 "baselines\n";
  }
  return check && failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cepic;
  return tools::tool_main("cepic-prof", [&]() -> int {
    unsigned top = 10;
    std::string schema_path;
    std::string fresh_path;
    double threshold = 0;
    bool check = false;

    tools::OptionTable table(
        "cepic-prof <trace.json|metrics.json>... [options]\n"
        "       cepic-prof diff A.json B.json [--threshold R] [--check]\n"
        "       cepic-prof bench HISTORY.json [--fresh RUN.json] [--check]\n"
        "       cepic-prof --validate SCHEMA FILE...");
    table.uint("--top", "N", "spans to list in the self-time ranking", &top);
    table.str("--validate", "SCHEMA",
              "validate the inputs against a JSON-Schema file and stop",
              &schema_path);
    table.str("--fresh", "RUN.json",
              "bench: check this raw google-benchmark run against the "
              "committed baselines",
              &fresh_path);
    table.real("--threshold", "R",
               "diff: flag rows whose B/A ratio reaches R (default 1.5)",
               &threshold);
    table.flag("--check", "exit 1 on flagged regressions / failed guards",
               &check);

    std::vector<std::string> positionals;
    if (!table.parse(argc, argv, positionals)) return 2;
    if (positionals.empty()) return table.usage();

    if (!schema_path.empty()) return run_validate(schema_path, positionals);

    const std::string subcommand = positionals.front();
    if (subcommand == "diff") {
      positionals.erase(positionals.begin());
      return run_diff(positionals, threshold, check);
    }
    if (subcommand == "bench") {
      positionals.erase(positionals.begin());
      return run_bench(positionals, fresh_path, check);
    }

    bool first = true;
    for (const std::string& path : positionals) {
      if (!first) std::cout << "\n";
      first = false;
      if (positionals.size() > 1) std::cout << "== " << path << " ==\n";
      const json::Value doc = json::parse(tools::read_file(path));
      if (doc.find("traceEvents") != nullptr) {
        report_trace(doc, top == 0 ? 10 : top);
      } else if (doc.find("counters") != nullptr ||
                 doc.find("gauges") != nullptr) {
        report_metrics(doc);
      } else {
        throw Error(cat(path,
                        ": neither a trace (traceEvents) nor a metrics "
                        "(counters/gauges) document"));
      }
    }
    return 0;
  });
}
