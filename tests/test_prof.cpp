// The offline analytics library behind cepic-prof (src/obs/report):
// span self-time aggregation over Chrome trace exports, cross-run
// regression diffs for traces and metrics, and the bench-trajectory
// parsing + ratio guards that gate CI's perf-smoke job.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "support/error.hpp"

namespace cepic {
namespace {

namespace report = obs::report;

/// A minimal trace document: backend.schedule encloses opt.cse on the
/// same thread; scale stretches the outer span's duration.
obs::json::Value trace_doc(double outer_dur_us) {
  std::string text =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"name\":\"schedule\",\"cat\":\"backend\",\"pid\":1,"
      "\"tid\":1,\"ts\":0,\"dur\":" + std::to_string(outer_dur_us) + "},"
      "{\"ph\":\"X\",\"name\":\"cse\",\"cat\":\"opt\",\"pid\":1,"
      "\"tid\":1,\"ts\":100,\"dur\":500},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\"ts\":0}"
      "],\"otherData\":{}}";
  return obs::json::parse(text);
}

obs::json::Value metrics_doc(double p50_ns, double counter) {
  std::string text =
      "{\"counters\":{\"sim.runs\":" + std::to_string(counter) + "},"
      "\"gauges\":{},"
      "\"histograms\":{"
      "\"pipeline.compile_ns\":{\"count\":10,\"sum\":1,\"max\":1,"
      "\"p50\":" + std::to_string(p50_ns) + ","
      "\"p90\":" + std::to_string(p50_ns * 2) + ","
      "\"p99\":" + std::to_string(p50_ns * 3) + "},"
      "\"tiny.hist_ns\":{\"count\":10,\"sum\":1,\"max\":1,"
      "\"p50\":" + std::to_string(p50_ns / 100) + ",\"p90\":1,\"p99\":1}"
      "}}";
  return obs::json::parse(text);
}

const report::DiffRow* find_row(const report::DiffReport& rep,
                                std::string_view prefix) {
  for (const report::DiffRow& row : rep.rows) {
    if (row.name.rfind(prefix, 0) == 0) return &row;
  }
  return nullptr;
}

// ------------------------------------------------------ span analytics

TEST(SpanAnalytics, SelfTimeSubtractsNestedChildren) {
  const std::vector<report::SpanAgg> aggs =
      report::aggregate_spans(trace_doc(1000));
  ASSERT_EQ(aggs.size(), 2u);  // name-sorted, metadata events ignored
  EXPECT_EQ(aggs[0].name, "backend.schedule");
  EXPECT_EQ(aggs[0].total, 1000);
  EXPECT_EQ(aggs[0].self, 500);  // 1000 minus the nested cse span
  EXPECT_EQ(aggs[1].name, "opt.cse");
  EXPECT_EQ(aggs[1].self, 500);
  EXPECT_EQ(aggs[1].count, 1u);
}

// ------------------------------------------------------ cross-run diff

TEST(Diff, IdenticalTracesReportZeroRegressions) {
  const report::DiffReport rep =
      report::diff_documents(trace_doc(1000), trace_doc(1000));
  EXPECT_EQ(rep.regressions, 0u);
  for (const report::DiffRow& row : rep.rows) EXPECT_FALSE(row.regressed);
}

TEST(Diff, FlagsSeededSlowdownInTraceSelfTime) {
  // Doubling the outer span's duration triples its self time
  // (500us -> 1500us): well past the 1.5x default threshold.
  const report::DiffReport rep =
      report::diff_documents(trace_doc(1000), trace_doc(2000));
  EXPECT_EQ(rep.regressions, 1u);
  const report::DiffRow* row = find_row(rep, "backend.schedule");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->regressed);
  EXPECT_EQ(row->a, 500);
  EXPECT_EQ(row->b, 1500);
  EXPECT_DOUBLE_EQ(row->ratio, 3.0);
  // Regressed rows sort first.
  EXPECT_EQ(rep.rows.front().name, row->name);
}

TEST(Diff, MetricsQuantileRegressionFlaggedAboveNoiseFloor) {
  const report::DiffReport rep =
      report::diff_documents(metrics_doc(20000, 5), metrics_doc(60000, 50));
  const report::DiffRow* p50 = find_row(rep, "pipeline.compile_ns p50(ns)");
  ASSERT_NE(p50, nullptr);
  EXPECT_TRUE(p50->regressed);
  EXPECT_DOUBLE_EQ(p50->ratio, 3.0);
  EXPECT_GE(rep.regressions, 1u);
  // The tiny histogram tripled too, but sits under min_quantile_ns on
  // both sides: noise, never flagged.
  EXPECT_EQ(find_row(rep, "tiny.hist_ns"), nullptr);
  // Counters are reported for context but are informational only.
  const report::DiffRow* counter = find_row(rep, "counter sim.runs");
  ASSERT_NE(counter, nullptr);
  EXPECT_FALSE(counter->regressed);
}

TEST(Diff, MismatchedDocumentKindsThrow) {
  EXPECT_THROW(report::diff_documents(trace_doc(1000), metrics_doc(20000, 1)),
               Error);
  EXPECT_THROW(
      report::diff_documents(obs::json::parse("{}"), obs::json::parse("{}")),
      Error);
}

// --------------------------------------------------- bench trajectory

TEST(Bench, ParsesRawRunNormalizingTimeUnits) {
  const obs::json::Value doc = obs::json::parse(
      "{\"context\":{\"date\":\"2026-08-09\",\"cmake_build_type\":"
      "\"Release\",\"git_commit\":\"abc1234\",\"git_dirty\":true},"
      "\"benchmarks\":["
      "{\"name\":\"BM_EpicSimulator\",\"run_type\":\"iteration\","
      "\"real_time\":2.5,\"time_unit\":\"ms\",\"sim_cycles/s\":4.0e9},"
      "{\"name\":\"BM_EpicSimulator\",\"run_type\":\"aggregate\","
      "\"real_time\":9999,\"time_unit\":\"ms\"}"
      "]}");
  const report::BenchRun run = report::parse_run(doc, "fresh");
  EXPECT_EQ(run.label, "fresh");
  EXPECT_EQ(run.commit, "abc1234");
  EXPECT_EQ(run.date, "2026-08-09");
  EXPECT_EQ(run.cmake_build_type, "Release");
  EXPECT_TRUE(run.git_dirty);
  ASSERT_EQ(run.benchmarks.count("BM_EpicSimulator"), 1u);
  const report::BenchMeasure& m = run.benchmarks.at("BM_EpicSimulator");
  EXPECT_DOUBLE_EQ(m.real_time_ns, 2.5e6);  // ms -> ns; aggregate skipped
  ASSERT_EQ(m.counters.count("sim_cycles/s"), 1u);
  EXPECT_DOUBLE_EQ(m.counters.at("sim_cycles/s"), 4.0e9);
}

TEST(Bench, RepeatedRunIsMeasuredByItsMedian) {
  // --benchmark_repetitions: iteration rows per repetition, then the
  // aggregates; only the median stands for the benchmark, whatever the
  // row order.
  const obs::json::Value doc = obs::json::parse(
      "{\"benchmarks\":["
      "{\"name\":\"BM_Frontend\",\"run_type\":\"iteration\","
      "\"real_time\":1,\"time_unit\":\"ms\"},"
      "{\"name\":\"BM_Frontend_median\",\"run_name\":\"BM_Frontend\","
      "\"run_type\":\"aggregate\",\"aggregate_name\":\"median\","
      "\"real_time\":3,\"time_unit\":\"ms\",\"time/half\":2.5},"
      "{\"name\":\"BM_Frontend_mean\",\"run_name\":\"BM_Frontend\","
      "\"run_type\":\"aggregate\",\"aggregate_name\":\"mean\","
      "\"real_time\":7,\"time_unit\":\"ms\"},"
      "{\"name\":\"BM_Frontend\",\"run_type\":\"iteration\","
      "\"real_time\":9,\"time_unit\":\"ms\"}"
      "]}");
  const report::BenchRun run = report::parse_run(doc, "fresh");
  ASSERT_EQ(run.benchmarks.size(), 1u);
  EXPECT_DOUBLE_EQ(run.benchmarks.at("BM_Frontend").real_time_ns, 3e6);
  EXPECT_DOUBLE_EQ(run.benchmarks.at("BM_Frontend").counters.at("time/half"),
                   2.5);
}

TEST(Bench, ParsesHistoryAndTagsNonReleaseRuns) {
  const obs::json::Value doc = obs::json::parse(
      "{\"runs\":["
      "{\"label\":\"v1\",\"commit\":\"aaa\",\"date\":\"d1\","
      "\"context\":{},\"benchmarks\":["
      "{\"name\":\"BM_Frontend\",\"real_time\":10,\"time_unit\":\"us\"}]},"
      "{\"label\":\"v2 (non-release: Debug)\",\"commit\":\"bbb\","
      "\"date\":\"d2\",\"context\":{},\"benchmarks\":["
      "{\"name\":\"BM_Frontend\",\"real_time\":99,\"time_unit\":\"us\"}]}"
      "]}");
  const std::vector<report::BenchRun> runs = report::parse_history(doc);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].commit, "aaa");
  EXPECT_TRUE(runs[0].release_eligible());
  EXPECT_FALSE(runs[1].release_eligible());
  EXPECT_THROW(report::parse_history(obs::json::parse("{}")), Error);
}

/// Build a run carrying the two simulator-tier benchmarks with the
/// given sim_cycles/s rates.
report::BenchRun tier_run(std::string label, double fast, double legacy) {
  report::BenchRun run;
  run.label = std::move(label);
  report::BenchMeasure m_fast, m_legacy;
  m_fast.counters["sim_cycles/s"] = fast;
  m_legacy.counters["sim_cycles/s"] = legacy;
  run.benchmarks["BM_EpicSimulator"] = m_fast;
  run.benchmarks["BM_EpicSimulatorLegacy"] = m_legacy;
  run.benchmarks["BM_EpicSimulatorDecode"] = m_legacy;
  return run;
}

const report::RatioCheck* find_check(const std::vector<report::RatioCheck>& cs,
                                     std::string_view name) {
  for (const report::RatioCheck& c : cs) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(Bench, RatioGuardPassesAtOrAboveFloor) {
  // Baseline tier ratio 5.0; floor = 0.75 * 5.0 = 3.75.
  const std::vector<report::BenchRun> history = {tier_run("base", 5e9, 1e9)};
  const std::vector<report::RatioCheck> checks =
      report::check_ratios(history, tier_run("fresh", 4e9, 1e9));
  const report::RatioCheck* c =
      find_check(checks, "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->baseline_label, "base");
  EXPECT_DOUBLE_EQ(c->baseline, 5.0);
  EXPECT_DOUBLE_EQ(c->limit, 3.75);
  EXPECT_DOUBLE_EQ(c->fresh, 4.0);
  EXPECT_TRUE(c->is_floor);
  EXPECT_TRUE(c->ok);
}

TEST(Bench, RatioGuardFailsBelowFloorAndSkipsNonReleaseBaselines) {
  // The newer non-release run (ratio 100) must not become the baseline;
  // against the release baseline (ratio 5) a fresh ratio of 2 fails.
  const std::vector<report::BenchRun> history = {
      tier_run("base", 5e9, 1e9),
      tier_run("debug (non-release: Debug)", 100e9, 1e9)};
  const std::vector<report::RatioCheck> checks =
      report::check_ratios(history, tier_run("fresh", 2e9, 1e9));
  const report::RatioCheck* c =
      find_check(checks, "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->baseline_label, "base");
  EXPECT_DOUBLE_EQ(c->limit, 3.75);
  EXPECT_FALSE(c->ok);
}

TEST(Bench, RatioGuardHandlesMissingBenchmarks) {
  const std::vector<report::BenchRun> history = {tier_run("base", 5e9, 1e9)};
  // Fresh run lost the legacy tier: with a committed baseline that is a
  // hard failure, not a silent skip.
  report::BenchRun fresh = tier_run("fresh", 5e9, 1e9);
  fresh.benchmarks.erase("BM_EpicSimulatorLegacy");
  const std::vector<report::RatioCheck> failed =
      report::check_ratios(history, fresh);
  const report::RatioCheck* c =
      find_check(failed, "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->ok);
  // No committed baseline at all (e.g. the wall-time pair here):
  // reported as skipped, ok, with an empty baseline label.
  const report::RatioCheck* time_pair =
      find_check(failed, "BM_Optimize/BM_Frontend (time)");
  ASSERT_NE(time_pair, nullptr);
  EXPECT_TRUE(time_pair->ok);
  EXPECT_TRUE(time_pair->baseline_label.empty());
}

TEST(Bench, RatioGuardBaselineIsTheMedianOfTheLastThreeRecords) {
  // The newest record is an outlier (ratio 10): it does not set the
  // baseline, which is the median of the last three eligible records
  // (4, 5 and 10 -> 5). The oldest record (ratio 1) is past the window,
  // the non-release one is skipped, and a record without the pair does
  // not count.
  report::BenchRun unrelated;
  unrelated.label = "unrelated";
  unrelated.benchmarks["BM_Frontend"].real_time_ns = 1;
  const std::vector<report::BenchRun> history = {
      tier_run("oldest", 1e9, 1e9), tier_run("a", 4e9, 1e9),
      tier_run("b", 5e9, 1e9),
      tier_run("debug (non-release: Debug)", 1e9, 1e9), unrelated,
      tier_run("outlier", 10e9, 1e9)};
  const std::vector<report::RatioCheck> checks =
      report::check_ratios(history, tier_run("fresh", 4e9, 1e9));
  const report::RatioCheck* c =
      find_check(checks, "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->baseline_label, "median of a, b, outlier");
  EXPECT_DOUBLE_EQ(c->baseline, 5.0);
  EXPECT_DOUBLE_EQ(c->limit, 3.75);
  EXPECT_TRUE(c->ok);  // the outlier alone would have failed it (7.5)
  // Two eligible records: the median is their mean.
  const std::vector<report::RatioCheck> two = report::check_ratios(
      {tier_run("a", 4e9, 1e9), tier_run("b", 6e9, 1e9)},
      tier_run("fresh", 4e9, 1e9));
  c = find_check(two, "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->baseline_label, "median of a, b");
  EXPECT_DOUBLE_EQ(c->baseline, 5.0);
}

TEST(Bench, SarmSimulatorFloorGuard) {
  // The SA-110 simulator is floored at 0.75x its committed sim_cycles/s
  // ratio to the EPIC decode tier.
  auto sarm_run = [](std::string label, double sarm) {
    report::BenchRun run;
    run.label = std::move(label);
    run.benchmarks["BM_SarmSimulator"].counters["sim_cycles/s"] = sarm;
    run.benchmarks["BM_EpicSimulatorDecode"].counters["sim_cycles/s"] = 20e6;
    return run;
  };
  // Baseline ratio 10; floor 7.5.
  const std::vector<report::BenchRun> history = {sarm_run("base", 200e6)};
  const char* name = "BM_SarmSimulator/BM_EpicSimulatorDecode";
  const std::vector<report::RatioCheck> ok_checks =
      report::check_ratios(history, sarm_run("fresh", 160e6));
  const report::RatioCheck* ok_check = find_check(ok_checks, name);
  ASSERT_NE(ok_check, nullptr);
  EXPECT_EQ(ok_check->baseline_label, "base");
  EXPECT_TRUE(ok_check->is_floor);
  EXPECT_DOUBLE_EQ(ok_check->limit, 7.5);
  EXPECT_TRUE(ok_check->ok);
  const std::vector<report::RatioCheck> bad_checks =
      report::check_ratios(history, sarm_run("fresh", 140e6));
  EXPECT_FALSE(find_check(bad_checks, name)->ok);
  // A fresh run that lost the SA-110 benchmark fails.
  report::BenchRun lost = sarm_run("fresh", 200e6);
  lost.benchmarks.erase("BM_SarmSimulator");
  EXPECT_FALSE(find_check(report::check_ratios(history, lost), name)->ok);
}

TEST(Bench, WallTimeCeilingGuard) {
  auto time_run = [](std::string label, double opt_ns, double frontend_ns) {
    report::BenchRun run;
    run.label = std::move(label);
    report::BenchMeasure opt, fe;
    opt.real_time_ns = opt_ns;
    fe.real_time_ns = frontend_ns;
    run.benchmarks["BM_Optimize"] = opt;
    run.benchmarks["BM_Frontend"] = fe;
    return run;
  };
  // Baseline ratio 2.0; ceiling = 1.6 * 2.0 = 3.2.
  const std::vector<report::BenchRun> history = {time_run("base", 2000, 1000)};
  const std::vector<report::RatioCheck> ok_checks =
      report::check_ratios(history, time_run("fresh", 3000, 1000));
  const report::RatioCheck* ok_check =
      find_check(ok_checks, "BM_Optimize/BM_Frontend (time)");
  ASSERT_NE(ok_check, nullptr);
  EXPECT_FALSE(ok_check->is_floor);
  EXPECT_TRUE(ok_check->ok);
  const std::vector<report::RatioCheck> bad_checks =
      report::check_ratios(history, time_run("fresh", 4000, 1000));
  const report::RatioCheck* bad_check =
      find_check(bad_checks, "BM_Optimize/BM_Frontend (time)");
  ASSERT_NE(bad_check, nullptr);
  EXPECT_FALSE(bad_check->ok);
}

TEST(Bench, BackendStageCeilingGuards) {
  // BM_Backend/lower and /schedule are each bounded at 1.6x their
  // committed ratio to BM_Frontend.
  auto stage_run = [](std::string label, double lower_ns,
                      double schedule_ns) {
    report::BenchRun run;
    run.label = std::move(label);
    run.benchmarks["BM_Backend/lower"].real_time_ns = lower_ns;
    run.benchmarks["BM_Backend/schedule"].real_time_ns = schedule_ns;
    run.benchmarks["BM_Frontend"].real_time_ns = 1000;
    return run;
  };
  // Baseline ratios 0.5 and 2.5; ceilings 0.8 and 4.0.
  const std::vector<report::BenchRun> history = {stage_run("base", 500, 2500)};
  const std::vector<report::RatioCheck> checks =
      report::check_ratios(history, stage_run("fresh", 900, 3900));
  const report::RatioCheck* lower =
      find_check(checks, "BM_Backend/lower/BM_Frontend (time)");
  const report::RatioCheck* schedule =
      find_check(checks, "BM_Backend/schedule/BM_Frontend (time)");
  ASSERT_NE(lower, nullptr);
  ASSERT_NE(schedule, nullptr);
  EXPECT_EQ(lower->baseline_label, "base");
  EXPECT_FALSE(lower->is_floor);
  EXPECT_DOUBLE_EQ(lower->limit, 0.8);
  EXPECT_DOUBLE_EQ(lower->fresh, 0.9);
  EXPECT_FALSE(lower->ok);
  EXPECT_DOUBLE_EQ(schedule->limit, 4.0);
  EXPECT_TRUE(schedule->ok);
  // A fresh run that lost a stage fails against the committed baseline.
  report::BenchRun lost = stage_run("fresh", 400, 2000);
  lost.benchmarks.erase("BM_Backend/schedule");
  const std::vector<report::RatioCheck> lost_checks =
      report::check_ratios(history, lost);
  EXPECT_TRUE(
      find_check(lost_checks, "BM_Backend/lower/BM_Frontend (time)")->ok);
  EXPECT_FALSE(
      find_check(lost_checks, "BM_Backend/schedule/BM_Frontend (time)")->ok);
}

TEST(Bench, SimStartupCeilingGuard) {
  // Starting on a shared image is bounded at 1.6x its committed ratio to
  // building a private one.
  auto startup_run = [](std::string label, double shared_ns) {
    report::BenchRun run;
    run.label = std::move(label);
    run.benchmarks["BM_SimStartup/shared_image"].real_time_ns = shared_ns;
    run.benchmarks["BM_SimStartup/build_image"].real_time_ns = 1000;
    return run;
  };
  // Baseline ratio 0.02; ceiling 0.032.
  const std::vector<report::BenchRun> history = {startup_run("base", 20)};
  const char* name =
      "BM_SimStartup/shared_image/BM_SimStartup/build_image (time)";
  const std::vector<report::RatioCheck> ok_checks =
      report::check_ratios(history, startup_run("fresh", 30));
  const report::RatioCheck* ok_check = find_check(ok_checks, name);
  ASSERT_NE(ok_check, nullptr);
  EXPECT_EQ(ok_check->baseline_label, "base");
  EXPECT_FALSE(ok_check->is_floor);
  EXPECT_DOUBLE_EQ(ok_check->limit, 0.032);
  EXPECT_TRUE(ok_check->ok);
  // A start-up that zero-fills its memory again reads ~10x.
  const std::vector<report::RatioCheck> bad_checks =
      report::check_ratios(history, startup_run("fresh", 200));
  EXPECT_FALSE(find_check(bad_checks, name)->ok);
}

TEST(Bench, CommittedBaselinesCatchTheStepsTheyGuard) {
  // The guards' baselines as CI computes them from the committed
  // BENCH_toolspeed.json. A three-record window that straddles a step
  // change (old code in one record, new code in two) can set a limit
  // the old code passes; replaying the last record taken before two
  // such steps (the eager 4 MiB zero fill at start-up and the
  // per-instruction SA-110 interpreter) must fail both guards.
  std::ifstream in(CEPIC_TEST_DIR "/../BENCH_toolspeed.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<report::BenchRun> history =
      report::parse_history(obs::json::parse(text.str()));
  const report::BenchRun* before = nullptr;
  for (const report::BenchRun& run : history) {
    if (run.label == "dense-backend-tables") before = &run;
  }
  ASSERT_NE(before, nullptr);
  const std::vector<report::RatioCheck> checks =
      report::check_ratios(history, *before);
  for (const report::RatioCheck& c : checks) {
    // Every ratio guard has a baseline, so none is silently skipped.
    if (!c.fixed) EXPECT_FALSE(c.baseline_label.empty()) << c.name;
  }
  const report::RatioCheck* startup = find_check(
      checks, "BM_SimStartup/shared_image/BM_SimStartup/build_image (time)");
  ASSERT_NE(startup, nullptr);
  EXPECT_LT(startup->limit, 0.05);  // the zero fill read 0.14-0.17
  EXPECT_FALSE(startup->ok) << startup->fresh;
  const report::RatioCheck* sarm =
      find_check(checks, "BM_SarmSimulator/BM_EpicSimulatorDecode");
  ASSERT_NE(sarm, nullptr);
  EXPECT_GT(sarm->limit, 10.0);  // the old interpreter read ~8.2
  EXPECT_FALSE(sarm->ok) << sarm->fresh;
}

TEST(Bench, CommittedAesFloorCatchesTheStaticTimingRevert) {
  // BM_EpicSimulator/aes is floored at 0.75x its committed ratio to the
  // decode tier. Before threaded blocks compiled per-bundle timing work
  // away (elided scoreboard reads, folded bundle boundaries), the same
  // benchmark read 4.29 and 4.49 in two full-suite Release runs on a
  // 4-vCPU host; a fresh run at the higher reading must fail the floor
  // the committed records set.
  constexpr double kParentRatio = 4.49;
  std::ifstream in(CEPIC_TEST_DIR "/../BENCH_toolspeed.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<report::BenchRun> history =
      report::parse_history(obs::json::parse(text.str()));
  const char* name = "BM_EpicSimulator/aes/BM_EpicSimulatorDecode";
  const report::RatioCheck* audit =
      find_check(report::audit_ratios(history), name);
  ASSERT_NE(audit, nullptr);
  ASSERT_FALSE(audit->baseline_label.empty());
  EXPECT_TRUE(audit->ok) << audit->fresh;
  report::BenchRun parent;
  parent.label = "parent";
  parent.benchmarks["BM_EpicSimulatorDecode"].counters["sim_cycles/s"] = 20e6;
  parent.benchmarks["BM_EpicSimulator/aes"].counters["sim_cycles/s"] =
      20e6 * kParentRatio;
  const report::RatioCheck* c =
      find_check(report::check_ratios(history, parent), name);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->ok) << "limit " << c->limit;
}

TEST(Bench, AuditChecksEachGuardOnItsNewestRecord) {
  // The history ends in a partial record (a filtered run carrying only
  // BM_Frontend). Each guard audits the newest release record that
  // carries both its sides, against baselines from the records before
  // that one: the tier pair audits "b" against "a", not the partial
  // record, which carries neither side.
  report::BenchRun partial;
  partial.label = "partial";
  partial.benchmarks["BM_Frontend"].real_time_ns = 1;
  const report::BenchRun debug =
      tier_run("debug (non-release: Debug)", 1e9, 1e9);
  const std::vector<report::RatioCheck> checks = report::audit_ratios(
      {tier_run("a", 5e9, 1e9), tier_run("b", 4e9, 1e9), debug, partial});
  const report::RatioCheck* c =
      find_check(checks, "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->fresh_label, "b");
  EXPECT_EQ(c->baseline_label, "a");
  EXPECT_DOUBLE_EQ(c->fresh, 4.0);
  EXPECT_DOUBLE_EQ(c->limit, 3.75);
  EXPECT_TRUE(c->ok);
  // Guards no record carries, or only one record (no baseline before
  // it), are skipped, not failed.
  for (const report::RatioCheck& rc : checks) EXPECT_TRUE(rc.ok) << rc.name;
  // The newest full record still fails the audit below its floor.
  c = find_check(report::audit_ratios({tier_run("a", 5e9, 1e9),
                                       tier_run("b", 2e9, 1e9), partial}),
                 "BM_EpicSimulator/BM_EpicSimulatorLegacy");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->fresh_label, "b");
  EXPECT_FALSE(c->ok);
}

TEST(Bench, ScalingGuardBoundsEveryDoubling) {
  // Each size's "time/half" counter is its own time over its half-size
  // input's; the guard bounds every doubling, with no baseline needed.
  auto scaling_run = [](double per_2k, double per_4k, double per_8k) {
    report::BenchRun run;
    run.label = "fresh";
    run.benchmarks["BM_CompileScaling/2k"].counters["time/half"] = per_2k;
    run.benchmarks["BM_CompileScaling/4k"].counters["time/half"] = per_4k;
    run.benchmarks["BM_CompileScaling/8k"].counters["time/half"] = per_8k;
    return run;
  };
  const std::vector<report::RatioCheck> linear =
      report::check_ratios({}, scaling_run(1.9, 2.0, 2.1));
  for (const char* size : {"2k", "4k", "8k"}) {
    const report::RatioCheck* c = find_check(
        linear, std::string("BM_CompileScaling/") + size + " (time/half)");
    ASSERT_NE(c, nullptr) << size;
    EXPECT_TRUE(c->fixed);
    EXPECT_FALSE(c->is_floor);
    EXPECT_DOUBLE_EQ(c->limit, 2.2);
    EXPECT_TRUE(c->ok) << size;
  }
  // One superlinear doubling fails on its own, even where the mean over
  // the three (1.8 * 1.8 * 3.0, 2.13 per doubling) would pass.
  const std::vector<report::RatioCheck> one_bad =
      report::check_ratios({}, scaling_run(1.8, 1.8, 3.0));
  const report::RatioCheck* bad =
      find_check(one_bad, "BM_CompileScaling/8k (time/half)");
  ASSERT_NE(bad, nullptr);
  EXPECT_DOUBLE_EQ(bad->fresh, 3.0);
  EXPECT_FALSE(bad->ok);
  EXPECT_TRUE(find_check(one_bad, "BM_CompileScaling/4k (time/half)")->ok);
  // A fresh run without the scaling benchmarks skips the guard.
  const std::vector<report::RatioCheck> no_scaling =
      report::check_ratios({}, report::BenchRun{});
  const report::RatioCheck* absent =
      find_check(no_scaling, "BM_CompileScaling/8k (time/half)");
  ASSERT_NE(absent, nullptr);
  EXPECT_TRUE(absent->ok);
  EXPECT_TRUE(absent->baseline_label.empty());
}

}  // namespace
}  // namespace cepic
