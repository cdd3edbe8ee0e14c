// The parallel design-space exploration engine (src/explore): thread
// pool, grid grammar, validity filtering, thread-count invariance
// (jobs=1 and jobs=8 must produce byte-identical results), result-cache
// behaviour (in-memory and on-disk), Pareto-set extraction on a
// hand-built fixture, and CSV/JSON golden output.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "explore/explore.hpp"
#include "explore/sweep.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/result_cache.hpp"
#include "pipeline/thread_pool.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::explore {
namespace {

using pipeline::ResultCache;
using pipeline::RunOutcome;
using pipeline::ThreadPool;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEverySubmittedTaskAndIsReusable) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 200);
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPool, SizeOneRunsInlineOnTheCallingThread) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.submit([&seen] { seen = std::this_thread::get_id(); });
  pool.wait();
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ZeroClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
}

// --------------------------------------------------------- grid grammar

TEST(SweepSpec, GridExpandsRowMajorLastDimensionFastest) {
  const SweepSpec spec = SweepSpec::from_grid("alus=1..2,ports=4,8");
  ASSERT_EQ(spec.size(), 4u);
  EXPECT_EQ(spec.points[0].num_alus, 1u);
  EXPECT_EQ(spec.points[0].reg_port_budget, 4u);
  EXPECT_EQ(spec.points[1].num_alus, 1u);
  EXPECT_EQ(spec.points[1].reg_port_budget, 8u);
  EXPECT_EQ(spec.points[2].num_alus, 2u);
  EXPECT_EQ(spec.points[2].reg_port_budget, 4u);
  EXPECT_EQ(spec.points[3].num_alus, 2u);
  EXPECT_EQ(spec.points[3].reg_port_budget, 8u);
}

TEST(SweepSpec, ContinuationTokensExtendThePreviousDimension) {
  const SweepSpec spec = SweepSpec::from_grid("ports=4,8,16,32");
  ASSERT_EQ(spec.size(), 4u);
  EXPECT_EQ(spec.points[3].reg_port_budget, 32u);
}

TEST(SweepSpec, AcceptsAliasesAndConfigFileNames) {
  const SweepSpec a = SweepSpec::from_grid("width=2");
  const SweepSpec b = SweepSpec::from_grid("issue=2");
  const SweepSpec c = SweepSpec::from_grid("issue_width=2");
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.points[0].issue_width, 2u);
  EXPECT_EQ(b.points[0], a.points[0]);
  EXPECT_EQ(c.points[0], a.points[0]);
}

TEST(SweepSpec, BooleanDimension) {
  const SweepSpec spec = SweepSpec::from_grid("forwarding=0,1");
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_FALSE(spec.points[0].forwarding);
  EXPECT_TRUE(spec.points[1].forwarding);
  EXPECT_THROW(SweepSpec::from_grid("forwarding=2"), ConfigError);
}

TEST(SweepSpec, BaseConfigCarriesUnsweptParameters) {
  ProcessorConfig base;
  base.num_gprs = 32;
  const SweepSpec spec = SweepSpec::from_grid("alus=1..2", base);
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_EQ(spec.points[0].num_gprs, 32u);
  EXPECT_EQ(spec.points[1].num_gprs, 32u);
}

TEST(SweepSpec, RejectsMalformedGrammar) {
  EXPECT_THROW(SweepSpec::from_grid(""), ConfigError);
  EXPECT_THROW(SweepSpec::from_grid("frobs=1..4"), ConfigError);
  EXPECT_THROW(SweepSpec::from_grid("alus=x"), ConfigError);
  EXPECT_THROW(SweepSpec::from_grid("alus=4..1"), ConfigError);
  EXPECT_THROW(SweepSpec::from_grid("4,8"), ConfigError);
  EXPECT_THROW(SweepSpec::from_grid("alus=1,,2"), ConfigError);
}

TEST(SweepSpec, RejectsValuesBeyond32Bits) {
  // 2^32 + 2 must not wrap to alus = 2.
  try {
    SweepSpec::from_grid("alus=4294967298");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad value `4294967298`"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(SweepSpec::from_grid("alus=1..4294967296"), ConfigError);
}

TEST(SweepSpec, RejectsGridsBeyondThePointCap) {
  // Each of these fails before a single value or point is built.
  for (const char* grid :
       {"alus=1..4294967295", "alus=0..1048576", "alus=1..1048576,0",
        "alus=1..1024,ports=1..1025"}) {
    try {
      SweepSpec::from_grid(grid);
      ADD_FAILURE() << grid << ": expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("more than 1048576 points"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepSpec, RangeEndingAtTheTopValueTerminates) {
  const SweepSpec spec = SweepSpec::from_grid("alus=4294967290..4294967295");
  ASSERT_EQ(spec.points.size(), 6u);
  EXPECT_EQ(spec.points.back().num_alus, 4294967295u);
}

TEST(SweepSpec, FilterInvalidDropsOutOfRangePoints) {
  SweepSpec spec = SweepSpec::from_grid("stages=1..5");
  ASSERT_EQ(spec.size(), 5u);
  EXPECT_EQ(spec.filter_invalid(), 2u);  // stages 1 and 5 are out of range
  ASSERT_EQ(spec.size(), 3u);
  EXPECT_EQ(spec.points.front().pipeline_stages, 2u);
  EXPECT_EQ(spec.points.back().pipeline_stages, 4u);
}

// --------------------------------------------------------------- engine

const char* kProg =
    "int main() {"
    "  int acc = 0;"
    "  for (int i = 1; i <= 30; i++) acc += i * i - (i << 1);"
    "  out(acc); return acc & 0xFF; }";

TEST(Explore, JobsCountDoesNotChangeAnyByteOfTheResult) {
  const SweepSpec spec = SweepSpec::from_grid("alus=1..2,width=1..2");
  pipeline::Options serial;
  serial.jobs = 1;
  pipeline::Options wide;
  wide.jobs = 8;
  const SweepResult a = run_sweep(kProg, spec, serial);
  const SweepResult b = run_sweep(kProg, spec, wide);
  ASSERT_EQ(a.points.size(), 4u);
  ASSERT_EQ(b.points.size(), 4u);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_TRUE(a.points[i].ok);
    EXPECT_EQ(a.points[i].cycles, b.points[i].cycles) << i;
    EXPECT_EQ(a.points[i].output_hash, b.points[i].output_hash) << i;
  }
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Explore, ResultsMatchADirectDriverRun) {
  SweepSpec spec;
  ProcessorConfig cfg;
  cfg.num_alus = 2;
  spec.add(cfg);
  const SweepResult r = run_sweep(kProg, spec, {});
  ASSERT_EQ(r.points.size(), 1u);
  ASSERT_TRUE(r.points[0].ok);

  EpicSimulator sim = pipeline::run_once(kProg, cfg);
  EXPECT_EQ(r.points[0].cycles, sim.stats().cycles);
  EXPECT_EQ(r.points[0].output_words, sim.output().size());
  EXPECT_EQ(r.points[0].output_hash, fnv1a64_words(sim.output()));
  EXPECT_EQ(r.points[0].ret, sim.gpr(3));
}

TEST(Explore, InvalidPointIsReportedNotThrown) {
  SweepSpec spec;
  ProcessorConfig bad;
  bad.num_alus = 0;  // validate() rejects
  spec.add(bad);
  spec.add(ProcessorConfig{});
  const SweepResult r = run_sweep(kProg, spec, {});
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_FALSE(r.points[0].ok);
  EXPECT_NE(r.points[0].error.find("num_alus"), std::string::npos);
  EXPECT_TRUE(r.points[1].ok);
  // Failed points still occupy their CSV row, with ok=0.
  EXPECT_NE(r.to_csv().find("\n0,"), std::string::npos);
}

TEST(Explore, OnDiskCacheMakesRepeatInvocationsFree) {
  const std::string cache_file =
      testing::TempDir() + "/explore_cache_test.sweep-cache";
  std::remove(cache_file.c_str());

  const SweepSpec spec = SweepSpec::from_grid("alus=1..2");
  pipeline::Options options;
  options.result_cache_file = cache_file;

  const SweepResult cold = run_sweep(kProg, spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  const SweepResult warm = run_sweep(kProg, spec, options);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_TRUE(warm.points[0].from_result_cache);
  // Cached and fresh results are byte-identical.
  EXPECT_EQ(cold.to_csv(), warm.to_csv());
  EXPECT_EQ(cold.to_json(), warm.to_json());

  // A different source must not hit the cache of the first program.
  const SweepResult other =
      run_sweep("int main() { out(1); return 1; }", spec, options);
  EXPECT_EQ(other.cache_hits, 0u);
  std::remove(cache_file.c_str());
}

TEST(Explore, InMemoryCacheDeduplicatesRepeatedPointsWithinOneSweep) {
  SweepSpec spec;
  spec.add(ProcessorConfig{});
  spec.add(ProcessorConfig{});  // identical point twice
  const SweepResult r = run_sweep(kProg, spec, {});
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_TRUE(r.points[0].ok);
  EXPECT_TRUE(r.points[1].ok);
  EXPECT_EQ(r.points[0].cycles, r.points[1].cycles);
}

/// An ok outcome with every cached field set to a distinct non-default
/// value, so a field the file drops or swaps fails the round trip.
RunOutcome full_outcome(std::uint64_t seed) {
  RunOutcome e;
  e.ok = true;
  std::uint64_t v = seed;
  for (std::uint64_t* counter :
       {&e.cycles, &e.bundles_issued, &e.ops_executed, &e.ops_committed,
        &e.ops_nullified, &e.nops, &e.stall_scoreboard, &e.stall_reg_ports,
        &e.stall_mem_contention, &e.branch_bubbles, &e.mem_reads,
        &e.mem_writes, &e.branches_taken, &e.branches_not_taken,
        &e.output_words}) {
    *counter = ++v;
  }
  for (std::uint64_t& bucket : e.bundle_width_hist) bucket = ++v;
  e.exec_tier = ExecTier::Decode;
  e.output_hash = 0xabcdef0123456789ull + seed;
  e.ret = 0xfffffff0u + static_cast<std::uint32_t>(seed % 8);
  return e;
}

TEST(ResultCache, FileRoundTripIgnoresCorruptLines) {
  const std::string path = testing::TempDir() + "/cache_roundtrip.txt";
  ResultCache cache;
  const ResultCache::Key key{0xdeadbeefull, 0x1234ull};
  const RunOutcome e = full_outcome(1000);
  cache.insert(key, e);
  cache.save_file(path);

  {  // append garbage that load must skip
    std::ofstream out(path, std::ios::app);
    out << "not a cache line\n"
        << "v1 zz zz 1 2 3 4 5\n"
        << "v1 1 2 3\n"
        << "v1 1 2 12345 678 3 abcdef0123456789 42\n"  // old format
        << "v3 1 2 3 4 5 6 7\n";                        // wrong field count
    // A well-formed line of the previous format, which also carried a
    // trace-truncated flag: same key, other counters; skipped whole.
    out << "v2 " << hex64(key.first) << ' ' << hex64(key.second);
    for (int i = 0; i < 14; ++i) out << " 7";  // SimStats counters
    out << " 1";                                // trace truncated
    for (int i = 0; i < 9; ++i) out << " 7";   // bundle-width buckets
    out << " 1 0 0 0\n";                       // tier, out words/hash, ret
  }
  ResultCache loaded;
  EXPECT_EQ(loaded.load_file(path), 1u);
  RunOutcome got;
  ASSERT_TRUE(loaded.lookup(key, got));
  EXPECT_EQ(got, e);
  EXPECT_EQ(got.exec_tier, e.exec_tier);  // not part of SimStats equality
  EXPECT_EQ(loaded.hits(), 1u);
  RunOutcome miss;
  EXPECT_FALSE(loaded.lookup({1, 2}, miss));
  EXPECT_EQ(loaded.misses(), 1u);
  std::remove(path.c_str());
}

TEST(ResultCache, SaveOverAnExistingFileIsAtomic) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "cache_resave";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "results.cache").string();

  ResultCache cache;
  cache.insert({1, 1}, full_outcome(10));
  cache.save_file(path);
  cache.insert({2, 2}, full_outcome(20));
  cache.save_file(path);  // over the first file

  ResultCache loaded;
  EXPECT_EQ(loaded.load_file(path), 2u);
  RunOutcome got;
  ASSERT_TRUE(loaded.lookup({1, 1}, got));
  EXPECT_EQ(got, full_outcome(10));
  ASSERT_TRUE(loaded.lookup({2, 2}, got));
  EXPECT_EQ(got, full_outcome(20));
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
  fs::remove_all(dir);
}

TEST(ResultCache, MissingFileLoadsNothing) {
  ResultCache cache;
  EXPECT_EQ(cache.load_file(testing::TempDir() + "/does_not_exist.cache"), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// --------------------------------------------------------------- pareto

PointResult make_point(std::uint64_t cycles, double slices, double power,
                       bool ok = true) {
  PointResult p;
  p.ok = ok;
  p.cycles = cycles;
  p.slices = slices;
  p.power_mw = power;
  return p;
}

TEST(SweepResultPareto, HandBuiltFrontier) {
  SweepResult r;
  r.points.push_back(make_point(100, 50, 10));   // 0: on frontier
  r.points.push_back(make_point(90, 60, 10));    // 1: fastest -> frontier
  r.points.push_back(make_point(100, 40, 12));   // 2: smallest -> frontier
  r.points.push_back(make_point(120, 70, 20));   // 3: dominated by 0
  r.points.push_back(make_point(100, 50, 10));   // 4: tie with 0 -> kept
  r.points.push_back(make_point(80, 30, 5, /*ok=*/false));  // 5: failed
  EXPECT_EQ(r.pareto_indices(), (std::vector<std::size_t>{0, 1, 2, 4}));
  EXPECT_TRUE(r.is_pareto(0));
  EXPECT_FALSE(r.is_pareto(3));
  EXPECT_FALSE(r.is_pareto(5));
}

TEST(SweepResultPareto, SingleSurvivorDominatesAll) {
  SweepResult r;
  r.points.push_back(make_point(10, 10, 10));
  r.points.push_back(make_point(10, 10, 11));
  r.points.push_back(make_point(11, 10, 10));
  EXPECT_EQ(r.pareto_indices(), (std::vector<std::size_t>{0}));
}

// ----------------------------------------------------------- csv / json

TEST(SweepResult, CsvGoldenOutput) {
  SweepResult r;
  r.source_hash = 0x1234;
  PointResult p = make_point(100, 11945, 716.6);
  p.config = ProcessorConfig{};
  p.config_hash = 0xfeed;
  p.ops_committed = 250;  // ilp 2.5
  p.block_rams = 3;
  p.block_mults = 6;
  p.fmax_mhz = 41.8;
  p.time_ms = 2.392;
  p.output_words = 1;
  p.output_hash = 0xabc;
  p.ret = 7;
  r.points.push_back(p);
  PointResult bad;
  bad.config = ProcessorConfig{};
  bad.config.num_alus = 2;
  bad.error = "boom";
  r.points.push_back(bad);

  EXPECT_EQ(r.to_csv(),
            "point,config,alus,issue,ports,stages,ok,cycles,ilp,slices,"
            "brams,mults,fmax_mhz,time_ms,power_mw,out_words,out_hash,ret,"
            "pareto\n"
            "0,4alu/4iss/8port/2stg,4,4,8,2,1,100,2.500,11945,3,6,41.8,"
            "2.392,716.6,1,abc,7,1\n"
            "1,2alu/4iss/8port/2stg,2,4,8,2,0,0,0.000,0,0,0,0.0,0.000,0.0,"
            "0,0,0,0\n");
}

TEST(SweepResult, JsonEscapesErrorsAndMarksPareto) {
  SweepResult r;
  PointResult ok = make_point(10, 20, 30);
  ok.config = ProcessorConfig{};
  r.points.push_back(ok);
  PointResult bad;
  bad.config = ProcessorConfig{};
  bad.error = "line 1: unexpected `\"`\nmore";
  r.points.push_back(bad);

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"pareto\": true"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("unexpected `\\\"`\\nmore"), std::string::npos);
}

}  // namespace
}  // namespace cepic::explore
