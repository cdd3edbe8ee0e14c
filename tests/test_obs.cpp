// The observability layer (src/obs) and its integrations: span
// recording across the pipeline thread pool, concurrent counters,
// latency histograms (bucket scheme, quantile error bounds, exact
// shard merges under the thread pool), the always-on flight recorder
// (ring wraparound, fault dumps, schema conformance), exporter
// goldens, the JSON parser + schema validator pair, the simulator's
// per-cycle timeline reconciling with SimStats on both execution
// paths, the explicit trace-truncation marker, and the no-allocation
// guarantee of disabled-mode tracing on the simulator hot loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/schema.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

// --- allocation counting (no-allocation tests) ------------------------
// Counting is off except inside the windows the tests open, so the
// overridden operators stay invisible to the rest of the binary.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
// libstdc++ takes stable_sort's temporary buffer from the nothrow forms
// and frees it with plain operator delete, so they must allocate with
// malloc too.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
// The overridden operator new above allocates with malloc, so free() is
// the matching deallocator; GCC cannot see the pairing and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CEPIC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CEPIC_TEST_ASAN 1
#endif
#endif

namespace cepic {
namespace {

/// Reset the global registry and force a known tracing state; restores
/// disabled-mode on scope exit so tests cannot leak state.
struct ObsFixture {
  explicit ObsFixture(bool enable) {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    obs::flight_reset();
    obs::set_enabled(enable);
  }
  ~ObsFixture() {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    obs::flight_reset();
  }
};

const char* kStallProg =
    "int main() {"
    "  int s = 3;"
    "  for (int i = 1; i < 40; i++) { s = s * s % 9973 + i; }"
    "  out(s); return s & 0xFF; }";

const char* kQuietProg =
    "int main() {"
    "  int s = 0;"
    "  for (int i = 0; i < 64; i++) s += i * 5 - (i >> 1);"
    "  return s & 0xFF; }";

Program compile(const char* source, const ProcessorConfig& config) {
  pipeline::Service service;
  return service.compile_program(source, config);
}

// ------------------------------------------------------------- spans

TEST(Span, RecordsNestingOnOneThread) {
  ObsFixture fx(true);
  {
    obs::Span outer("outer", "test");
    obs::Span inner("inner", "test");
    inner.arg("k", std::uint64_t{7});
  }
  const std::vector<obs::SpanRecord> spans = obs::Registry::instance().spans();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order records inner first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].key, "k");
  EXPECT_EQ(spans[0].args[0].value, "7");
  EXPECT_TRUE(spans[0].args[0].numeric);
}

TEST(Span, InertWhenDisabled) {
  ObsFixture fx(false);
  obs::Span span("never", "test");
  span.arg("k", "v");
  EXPECT_FALSE(span.active());
  EXPECT_TRUE(obs::Registry::instance().spans().empty());
}

TEST(Span, DistinctThreadIdsAcrossThreadPool) {
  ObsFixture fx(true);
  pipeline::ThreadPool pool(4);
  for (int i = 0; i < 32; ++i) {
    pool.submit([] { obs::Span span("task", "test"); });
  }
  pool.wait();
  const std::vector<obs::SpanRecord> spans = obs::Registry::instance().spans();
  ASSERT_EQ(spans.size(), 32u);
  std::set<int> tids;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.name, "task");
    tids.insert(s.tid);
  }
  // Dense ids, one per worker that ran at least one task.
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), 4u);
  EXPECT_GE(*tids.begin(), 1);
}

TEST(Counters, ExactUnderConcurrentIncrements) {
  ObsFixture fx(false);  // counters are independent of the span switch
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) obs::add("test.concurrent");
    });
  }
  for (std::thread& t : threads) t.join();
  const auto counters = obs::Registry::instance().counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "test.concurrent");
  EXPECT_EQ(counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------- export goldens

TEST(ChromeTraceJson, GoldenDocument) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent meta;
  meta.ph = 'M';
  meta.name = "thread_name";
  meta.tid = 2;
  meta.args.push_back({"name", "ALU0", false});
  events.push_back(meta);
  obs::TraceEvent span;
  span.ph = 'X';
  span.name = "fold \"x\"";
  span.cat = "opt";
  span.ts = 1.5;
  span.dur = 2;
  span.tid = 3;
  span.args.push_back({"n", "7", true});
  events.push_back(span);
  const std::string json = obs::chrome_trace_json(
      events, {{"time_unit", "cycles", false}, {"cycles", "42", true}});
  EXPECT_EQ(json,
            "{\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
            "\"ts\":0,\"args\":{\"name\":\"ALU0\"}},\n"
            "{\"ph\":\"X\",\"name\":\"fold \\\"x\\\"\",\"pid\":1,\"tid\":3,"
            "\"cat\":\"opt\",\"ts\":1.5,\"dur\":2,\"args\":{\"n\":7}}\n"
            "],\"displayTimeUnit\":\"ms\","
            "\"otherData\":{\"time_unit\":\"cycles\",\"cycles\":42}}\n");
}

TEST(MetricsExport, GoldenJsonAndCsv) {
  ObsFixture fx(false);
  obs::add("b.counter", 2);
  obs::add("a.counter");
  obs::Registry::instance().set_gauge("g.ratio", 1.25);
  for (std::uint64_t v : {1, 2, 3, 4}) obs::observe("h.lat_ns", v);
  EXPECT_EQ(obs::metrics_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a.counter\": 1,\n"
            "    \"b.counter\": 2\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g.ratio\": 1.25\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h.lat_ns\": {\"count\": 4, \"sum\": 10, \"max\": 4, "
            "\"p50\": 2, \"p90\": 4, \"p99\": 4}\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(obs::metrics_csv(),
            "kind,name,value\n"
            "counter,a.counter,1\n"
            "counter,b.counter,2\n"
            "gauge,g.ratio,1.25\n"
            "histogram,h.lat_ns.count,4\n"
            "histogram,h.lat_ns.sum,10\n"
            "histogram,h.lat_ns.max,4\n"
            "histogram,h.lat_ns.p50,2\n"
            "histogram,h.lat_ns.p90,4\n"
            "histogram,h.lat_ns.p99,4\n");
}

TEST(TraceJson, EmbedsCountersAndParsesBack) {
  ObsFixture fx(true);
  { obs::Span span("alpha", "stage"); }
  obs::add("hits", 3);
  const obs::json::Value doc = obs::json::parse(obs::trace_json());
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].find("name")->string, "alpha");
  EXPECT_EQ(events->array[0].find("cat")->string, "stage");
  const obs::json::Value* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->find("counter.hits"), nullptr);
  EXPECT_EQ(other->find("counter.hits")->number, 3.0);
}

// ------------------------------------------------- json parser + schema

TEST(Json, ParsesEscapesAndNumbers) {
  const obs::json::Value v = obs::json::parse(
      "{\"s\":\"a\\n\\\"b\\\"\\u0041\",\"n\":-12.5e1,\"t\":true,"
      "\"nil\":null,\"arr\":[1,2]}");
  EXPECT_EQ(v.find("s")->string, "a\n\"b\"A");
  EXPECT_EQ(v.find("n")->number, -125.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_TRUE(v.find("nil")->is_null());
  ASSERT_EQ(v.find("arr")->array.size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::json::parse("{"), Error);
  EXPECT_THROW(obs::json::parse("[1,]"), Error);
  EXPECT_THROW(obs::json::parse("{\"a\":1} x"), Error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), Error);
}

TEST(Schema, AcceptsValidAndReportsViolations) {
  const obs::json::Value schema = obs::json::parse(
      "{\"type\":\"object\",\"required\":[\"ph\"],"
      "\"additionalProperties\":false,"
      "\"properties\":{\"ph\":{\"enum\":[\"X\",\"I\"]},"
      "\"ts\":{\"type\":\"number\",\"minimum\":0}}}");
  EXPECT_TRUE(
      obs::schema::validate(schema, obs::json::parse("{\"ph\":\"X\",\"ts\":1}"))
          .empty());
  // Missing required, bad enum value, negative minimum, unknown member.
  EXPECT_EQ(obs::schema::validate(schema, obs::json::parse("{}")).size(), 1u);
  EXPECT_FALSE(obs::schema::validate(
                   schema, obs::json::parse("{\"ph\":\"Z\"}"))
                   .empty());
  EXPECT_FALSE(obs::schema::validate(
                   schema, obs::json::parse("{\"ph\":\"X\",\"ts\":-1}"))
                   .empty());
  EXPECT_FALSE(obs::schema::validate(
                   schema, obs::json::parse("{\"ph\":\"X\",\"zz\":1}"))
                   .empty());
}

// ------------------------------------------------- latency histograms

TEST(Histogram, BucketSchemeRoundTripsAndTilesWithoutGaps) {
  using H = obs::Histogram;
  // Values below 2*kSub get a bucket each: exact.
  for (std::uint64_t v = 0; v < 2 * H::kSub; ++v) {
    EXPECT_EQ(H::bucket_of(v), v);
    EXPECT_EQ(H::bucket_low(static_cast<unsigned>(v)), v);
    EXPECT_EQ(H::bucket_high(static_cast<unsigned>(v)), v);
  }
  // Both bounds of every bucket map back to it, consecutive buckets
  // tile the value range with no gap, and a log-linear bucket spans at
  // most 1/kSub of its lower bound (the documented +12.5% error).
  for (unsigned b = 0; b < H::kBuckets; ++b) {
    const std::uint64_t low = H::bucket_low(b);
    const std::uint64_t high = H::bucket_high(b);
    ASSERT_LE(low, high);
    EXPECT_EQ(H::bucket_of(low), b);
    EXPECT_EQ(H::bucket_of(high), b);
    if (b + 1 < H::kBuckets) {
      EXPECT_EQ(H::bucket_low(b + 1), high + 1);
    }
    if (b >= 2 * H::kSub) {
      EXPECT_LE(high - low, low / H::kSub);
    }
  }
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_high(H::kBuckets - 1), ~std::uint64_t{0});
}

TEST(Histogram, QuantilesWithinDocumentedErrorBound) {
  obs::Histogram hist;
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 0x243F6A8885A308D3ULL;  // deterministic LCG walk
  for (int i = 0; i < 400; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t v = (x >> (x % 48)) | 1;  // spread across octaves
    samples.push_back(v);
    hist.observe(v);
  }
  std::sort(samples.begin(), samples.end());
  const obs::HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::uint64_t truth = samples[rank - 1];
    const std::uint64_t est = snap.quantile(q);
    EXPECT_GE(est, truth) << "quantile must not under-report, q=" << q;
    EXPECT_LE(est, truth + truth / obs::Histogram::kSub) << "q=" << q;
  }
  // The maximum is tracked per-sample, so the top quantile is exact.
  EXPECT_EQ(snap.quantile(1.0), samples.back());
  EXPECT_EQ(snap.max, samples.back());
  EXPECT_EQ(obs::HistogramSnapshot{}.quantile(0.5), 0u);
}

TEST(Histogram, ConcurrentObservesMergeExactlyAcrossShards) {
  ObsFixture fx(false);
  obs::Histogram& hist = obs::Registry::instance().histogram("t.merge_ns");
  constexpr std::uint64_t kTasks = 32;
  constexpr std::uint64_t kPerTask = 2000;
  {
    pipeline::ThreadPool pool(8);
    for (std::uint64_t t = 0; t < kTasks; ++t) {
      pool.submit([&hist, t] {
        for (std::uint64_t i = 1; i <= kPerTask; ++i) {
          hist.observe(t * kPerTask + i);
        }
      });
    }
    pool.wait();
  }
  // Quiescent merge is exact: the shards partition the samples, so the
  // summed snapshot equals what one global histogram would have seen.
  const obs::HistogramSnapshot snap = hist.snapshot();
  const std::uint64_t n = kTasks * kPerTask;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum, n * (n + 1) / 2);  // samples were 1..n, once each
  EXPECT_EQ(snap.max, n);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
}

// ---------------------------------------------------- flight recorder

/// Count the dump's trace events whose name matches exactly.
std::size_t count_events(const obs::json::Value& doc, std::string_view name) {
  std::size_t n = 0;
  const obs::json::Value* events = doc.find("traceEvents");
  if (events == nullptr) return 0;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* ev_name = e.find("name");
    if (ev_name != nullptr && ev_name->string == name) ++n;
  }
  return n;
}

TEST(FlightRecorder, RingWrapsKeepingNewestAndCountsDropped) {
  ObsFixture fx(false);
  constexpr std::uint64_t kExtra = 100;
  for (std::uint64_t i = 0; i < obs::kFlightCapacity + kExtra; ++i) {
    obs::flight_record(obs::FlightEvent::kInstant, "wrap", 0, 1000 + i);
  }
  const obs::json::Value doc = obs::json::parse(obs::flight_trace_json());
  EXPECT_EQ(count_events(doc, "wrap"), obs::kFlightCapacity);
  // The oldest kExtra events were evicted: the epoch (exported ts 0) is
  // the first *retained* instant, and the newest is capacity-1 later.
  double min_ts = 1e300, max_ts = -1;
  for (const obs::json::Value& e : doc.find("traceEvents")->array) {
    min_ts = std::min(min_ts, e.find("ts")->number);
    max_ts = std::max(max_ts, e.find("ts")->number);
  }
  EXPECT_EQ(min_ts, 0.0);
  EXPECT_NEAR(max_ts * 1e3, static_cast<double>(obs::kFlightCapacity - 1), 0.5);
  // Per-ring totals land in otherData; ours is the only non-empty ring.
  const obs::json::Value& other = *doc.find("otherData");
  std::uint64_t recorded = 0, dropped = 0;
  for (const auto& [key, value] : other.object) {
    if (key.find(".recorded") != std::string::npos) {
      recorded += static_cast<std::uint64_t>(value.number);
    }
    if (key.find(".dropped") != std::string::npos) {
      dropped += static_cast<std::uint64_t>(value.number);
    }
  }
  EXPECT_EQ(recorded, obs::kFlightCapacity + kExtra);
  EXPECT_EQ(dropped, kExtra);
  EXPECT_EQ(doc.find("otherData")->find("flight.capacity")->number,
            static_cast<double>(obs::kFlightCapacity));
}

TEST(FlightRecorder, RendersEndsAsSpansAndOpenBeginsAsInFlight) {
  ObsFixture fx(false);
  obs::flight_record(obs::FlightEvent::kBegin, "outer", 0, 1000);
  obs::flight_record(obs::FlightEvent::kBegin, "inner", 0, 2000);
  obs::flight_record(obs::FlightEvent::kEnd, "inner", 500, 2500);
  obs::flight_record(obs::FlightEvent::kCounter, "hits", 3, 2600);
  // "outer" never ends: it was in flight when the dump was taken.
  const obs::json::Value doc = obs::json::parse(obs::flight_trace_json());
  EXPECT_EQ(count_events(doc, "inner"), 1u);
  EXPECT_EQ(count_events(doc, "outer (in flight)"), 1u);
  EXPECT_EQ(count_events(doc, "hits"), 1u);
  for (const obs::json::Value& e : doc.find("traceEvents")->array) {
    const std::string& name = e.find("name")->string;
    const std::string& ph = e.find("ph")->string;
    if (name == "inner") {
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(e.find("ts")->number * 1e3, 2000 - 1000);  // start - epoch
      EXPECT_EQ(e.find("dur")->number * 1e3, 500);
    } else if (name == "outer (in flight)") {
      EXPECT_EQ(ph, "I");
    } else if (name == "hits") {
      EXPECT_EQ(ph, "C");
      EXPECT_EQ(e.find("args")->find("delta")->number, 3.0);
    }
  }
}

TEST(FlightRecorder, DisabledRecordingIsInert) {
  ObsFixture fx(false);
  obs::set_flight_enabled(false);
  obs::flight_record(obs::FlightEvent::kInstant, "ghost", 0, 1000);
  { obs::Span span("ghost-span", "test"); }
  obs::set_flight_enabled(true);
  const obs::json::Value doc = obs::json::parse(obs::flight_trace_json());
  EXPECT_EQ(count_events(doc, "ghost"), 0u);
  EXPECT_EQ(count_events(doc, "ghost-span"), 0u);
}

TEST(FlightRecorder, FaultDumpValidatesAgainstCheckedInSchema) {
  ObsFixture fx(false);
  const std::string path =
      testing::TempDir() + "cepic_flight_fault_test.json";
  obs::set_flight_fault_path(path);
  {
    obs::Span span("doomed", "test");
    obs::flight_record_fault("boom");
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "fault dump not written to " << path;
  std::ostringstream dump;
  dump << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(dump.str());
  // The fault instant is stamped (name truncated into the ring slot)
  // and the enclosing span was still open at dump time.
  EXPECT_EQ(count_events(doc, "fault: boom"), 1u);
  EXPECT_EQ(count_events(doc, "doomed (in flight)"), 1u);
  std::ifstream schema_in(CEPIC_TEST_DIR "/../schemas/chrome-trace.schema.json",
                          std::ios::binary);
  ASSERT_TRUE(schema_in.is_open());
  std::ostringstream schema_text;
  schema_text << schema_in.rdbuf();
  const std::vector<std::string> violations =
      obs::schema::validate(obs::json::parse(schema_text.str()), doc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
  std::remove(path.c_str());
}

TEST(FlightRecorder, ExitedThreadsHandTheirRingsToNewThreads) {
  ObsFixture fx(false);
  // A dead thread's events stay dumpable until its ring is reused.
  std::thread([] {
    obs::flight_record(obs::FlightEvent::kInstant, "last-words", 0, 1);
  }).join();
  EXPECT_EQ(count_events(obs::json::parse(obs::flight_trace_json()),
                         "last-words"),
            1u);
  // Sequential 4-worker pools, as one service per request starts them:
  // each pool's workers reuse the rings the previous pool's left behind,
  // so the count stays at the peak of live threads (4 workers plus this
  // one), not one ring per thread ever started.
  obs::flight_record(obs::FlightEvent::kInstant, "main", 0, 1);
  const std::size_t before = obs::flight_ring_count();
  for (int pass = 0; pass < 16; ++pass) {
    pipeline::ThreadPool pool(4);
    std::atomic<int> started{0};
    for (int t = 0; t < 4; ++t) {
      pool.submit([&started] {
        obs::flight_record(obs::FlightEvent::kInstant, "task", 0, 1);
        // Hold each worker until all four have recorded, so all four
        // threads own a ring at the same time.
        started.fetch_add(1);
        while (started.load() < 4) std::this_thread::yield();
      });
    }
    pool.wait();
  }
  EXPECT_LE(obs::flight_ring_count(), std::max<std::size_t>(before, 5));
}

TEST(FlightRecorder, RecordingDoesNotAllocateAfterRingWarmup) {
#if defined(CEPIC_TEST_ASAN)
  GTEST_SKIP() << "allocation counting is unreliable under ASan";
#else
  ObsFixture fx(false);
  // First event on a thread registers its ring; histograms allocate on
  // first observe of a name. Warm both, then count.
  obs::flight_record(obs::FlightEvent::kInstant, "warm", 0, 1);
  obs::observe("warm.hist_ns", 1);
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 4 * obs::kFlightCapacity; ++i) {
    obs::flight_record(obs::FlightEvent::kInstant, "steady", 0, i);
    obs::observe("warm.hist_ns", i);
  }
  {
    obs::Span span("steady-span", "test");  // flight begin/end only
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "the always-on observability path must not allocate";
#endif
}

// ---------------------------------------------------- simulator timeline

struct TimelineSums {
  std::uint64_t issue_slices = 0;
  std::uint64_t scoreboard = 0;
  std::uint64_t reg_port = 0;
  std::uint64_t mem_contention = 0;
  std::uint64_t branch_bubbles = 0;
  std::uint64_t fu_slices = 0;
  std::uint64_t nullified_slices = 0;
};

/// Re-derive the per-track cycle sums from an exported timeline JSON —
/// the acceptance property: tracks must account for exactly the cycles
/// SimStats reports.
TimelineSums sum_timeline(const std::string& json_text) {
  TimelineSums sums;
  const obs::json::Value doc = obs::json::parse(json_text);
  const obs::json::Value* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  for (const obs::json::Value& e : events->array) {
    if (e.find("ph") == nullptr || e.find("ph")->string != "X") continue;
    const std::string cat = e.find("cat") ? e.find("cat")->string : "";
    const std::uint64_t dur = e.find("dur")
                                  ? static_cast<std::uint64_t>(
                                        e.find("dur")->number)
                                  : 0;
    if (cat == "issue") {
      ++sums.issue_slices;
    } else if (cat == "fu") {
      ++sums.fu_slices;
    } else if (cat == "nullified") {
      ++sums.nullified_slices;
    } else if (cat == "stall") {
      const std::string name = e.find("name")->string;
      if (name == "scoreboard") sums.scoreboard += dur;
      if (name == "reg-port") sums.reg_port += dur;
      if (name == "mem-contention") sums.mem_contention += dur;
      if (name == "branch-bubble") sums.branch_bubbles += dur;
    }
  }
  return sums;
}

void check_timeline_matches_stats(const ProcessorConfig& config,
                                  ExecTier tier) {
  Program program = compile(kStallProg, config);
  SimOptions options;
  options.exec_tier = tier;
  EpicSimulator sim(std::move(program), {}, options);
  SimTimeline timeline(config);
  sim.set_timeline(&timeline);
  // With a timeline attached the threaded tier pins to the decode tier
  // (per-bundle timeline events are the decode tier's contract) and the
  // stats say so explicitly.
  EXPECT_EQ(sim.active_tier(),
            tier == ExecTier::Threaded ? ExecTier::Decode : tier);
  const SimStats& stats = sim.run();
  EXPECT_EQ(stats.exec_tier,
            tier == ExecTier::Threaded ? ExecTier::Decode : tier);
  EXPECT_EQ(stats.timeline_pinned, tier == ExecTier::Threaded);

  ASSERT_GT(stats.bundles_issued, 0u);
  // Totals accumulated while recording match SimStats field-for-field.
  const SimTimeline::Totals& t = timeline.totals();
  EXPECT_EQ(t.cycles, stats.cycles);
  EXPECT_EQ(t.bundles_issued, stats.bundles_issued);
  EXPECT_EQ(t.stall_scoreboard, stats.stall_scoreboard);
  EXPECT_EQ(t.stall_reg_ports, stats.stall_reg_ports);
  EXPECT_EQ(t.stall_mem_contention, stats.stall_mem_contention);
  EXPECT_EQ(t.branch_bubbles, stats.branch_bubbles);
  EXPECT_EQ(t.ops_executed, stats.ops_executed);
  EXPECT_EQ(t.ops_committed, stats.ops_committed);
  EXPECT_EQ(t.ops_nullified, stats.ops_nullified);

  // And the exported JSON's per-track sums re-derive the same numbers.
  const TimelineSums sums = sum_timeline(timeline.to_chrome_json());
  EXPECT_EQ(sums.issue_slices, stats.bundles_issued);
  EXPECT_EQ(sums.scoreboard, stats.stall_scoreboard);
  EXPECT_EQ(sums.reg_port, stats.stall_reg_ports);
  EXPECT_EQ(sums.mem_contention, stats.stall_mem_contention);
  EXPECT_EQ(sums.branch_bubbles, stats.branch_bubbles);
  EXPECT_EQ(sums.fu_slices + sums.nullified_slices, stats.ops_executed);
  EXPECT_EQ(sums.nullified_slices, stats.ops_nullified);
}

TEST(SimTimeline, ReconcilesWithSimStatsFastPath) {
  check_timeline_matches_stats(ProcessorConfig{}, ExecTier::Decode);
}

TEST(SimTimeline, ReconcilesWithSimStatsInterpretivePath) {
  check_timeline_matches_stats(ProcessorConfig{}, ExecTier::Interp);
}

TEST(SimTimeline, ReconcilesWithSimStatsThreadedTierPinned) {
  // A threaded-tier simulator with a timeline attached runs pinned to
  // the decode tier; the reconciliation (and the explicit marker) is
  // checked inside the helper.
  check_timeline_matches_stats(ProcessorConfig{}, ExecTier::Threaded);
}

TEST(SimTimeline, ReconcilesUnderContentionAndTightPorts) {
  ProcessorConfig config;
  config.unified_memory_contention = true;
  config.reg_port_budget = 4;
  config.forwarding = false;
  check_timeline_matches_stats(config, ExecTier::Decode);
  check_timeline_matches_stats(config, ExecTier::Interp);
  check_timeline_matches_stats(config, ExecTier::Threaded);
}

TEST(SimTimeline, PathsExportIdenticalTimelines) {
  const ProcessorConfig config;
  Program program = compile(kStallProg, config);
  const ExecTier tiers[] = {ExecTier::Decode, ExecTier::Interp,
                            ExecTier::Threaded};
  std::string exported[3];
  for (int pass = 0; pass < 3; ++pass) {
    SimOptions options;
    options.exec_tier = tiers[pass];
    EpicSimulator sim(program, {}, options);
    SimTimeline timeline(config);
    sim.set_timeline(&timeline);
    sim.run();
    exported[pass] = timeline.to_chrome_json();
  }
  EXPECT_EQ(exported[0], exported[1]);
  EXPECT_EQ(exported[0], exported[2]);
}

TEST(SimTimeline, TruncatesWithMarkerAndKeepsTotals) {
  const ProcessorConfig config;
  Program program = compile(kStallProg, config);
  EpicSimulator sim(std::move(program), {}, {});
  SimTimeline timeline(config, /*max_bundles=*/5);
  sim.set_timeline(&timeline);
  const SimStats& stats = sim.run();
  EXPECT_TRUE(timeline.truncated());
  // Totals keep accumulating past the cap.
  EXPECT_EQ(timeline.totals().bundles_issued, stats.bundles_issued);
  EXPECT_EQ(timeline.totals().cycles, stats.cycles);
  const std::string json_text = timeline.to_chrome_json();
  EXPECT_NE(json_text.find("timeline truncated at 5 bundles"),
            std::string::npos);
  const obs::json::Value doc = obs::json::parse(json_text);
  EXPECT_EQ(doc.find("otherData")->find("truncated")->boolean, true);
  // Only the capped bundles contributed slices.
  EXPECT_EQ(sum_timeline(json_text).issue_slices, 5u);
}

TEST(SimTimeline, ValidatesAgainstCheckedInSchema) {
  const ProcessorConfig config;
  Program program = compile(kStallProg, config);
  EpicSimulator sim(std::move(program), {}, {});
  SimTimeline timeline(config);
  sim.set_timeline(&timeline);
  sim.run();
  // Locate the schema relative to the source tree layout used by ctest
  // (tests run from build/tests; the repo root holds schemas/).
  const char* candidates[] = {"../../schemas/chrome-trace.schema.json",
                              "../schemas/chrome-trace.schema.json",
                              "schemas/chrome-trace.schema.json"};
  std::string schema_text;
  for (const char* path : candidates) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      schema_text = ss.str();
      break;
    }
  }
  if (schema_text.empty()) GTEST_SKIP() << "schema file not found from cwd";
  const std::vector<std::string> violations = obs::schema::validate(
      obs::json::parse(schema_text), obs::json::parse(timeline.to_chrome_json()));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

// ------------------------------------------------ trace truncation marker

TEST(SimTrace, TruncationAppendsExplicitMarker) {
  // The text trace renders the timeline, so one cap bounds both outputs
  // and both carry the same marker. Every tier records the same lines:
  // a threaded run with a timeline attached executes on the decode tier.
  const ProcessorConfig config;
  Program program = compile(kStallProg, config);
  std::string first;
  for (const ExecTier tier :
       {ExecTier::Threaded, ExecTier::Decode, ExecTier::Interp}) {
    SCOPED_TRACE(to_string(tier));
    SimOptions options;
    options.exec_tier = tier;
    options.threaded_hot_threshold = 1;
    EpicSimulator sim(program, {}, options);
    SimTimeline timeline(sim.config(), 10);
    sim.set_timeline(&timeline);
    const SimStats& stats = sim.run();
    EXPECT_TRUE(timeline.truncated());
    EXPECT_EQ(stats.timeline_pinned, tier == ExecTier::Threaded);
    const std::string text = timeline.to_text(sim.program());
    const auto lines = split(text, '\n');
    ASSERT_EQ(lines.size(), 12u);  // 10 bundles, the marker, "" after it
    EXPECT_EQ(lines[10], "[timeline truncated at 10 bundles]");
    EXPECT_NE(timeline.to_chrome_json().find("timeline truncated at 10 "
                                             "bundles"),
              std::string::npos);
    if (first.empty()) first = text;
    EXPECT_EQ(text, first);
  }
}

TEST(SimTrace, NoMarkerBelowLimit) {
  const ProcessorConfig config;
  Program program = compile(kQuietProg, config);
  EpicSimulator sim(std::move(program));
  SimTimeline timeline(sim.config(), 1u << 20);
  sim.set_timeline(&timeline);
  const SimStats& stats = sim.run();
  EXPECT_FALSE(timeline.truncated());
  const std::string text = timeline.to_text(sim.program());
  EXPECT_EQ(static_cast<std::uint64_t>(
                std::count(text.begin(), text.end(), '\n')),
            stats.bundles_issued);
  EXPECT_EQ(text.find("truncated"), std::string::npos);
}

// ------------------------------------------- bundle-width histogram range

TEST(SimStatsHist, SizedForTheConfiguredIssueWidthRange) {
  // The histogram covers 0..kMaxBundleWidth and the simulator asserts
  // the configured width fits; the paper prototype's 4-wide issue is
  // well inside.
  static_assert(SimStats::kMaxBundleWidth >= 4);
  SimStats stats;
  EXPECT_EQ(stats.bundle_width_hist.size(), SimStats::kMaxBundleWidth + 1);
  Program program = compile(kQuietProg, ProcessorConfig{});
  program.config.issue_width =
      static_cast<unsigned>(SimStats::kMaxBundleWidth) + 1;
  EXPECT_THROW(EpicSimulator(std::move(program), {}, {}), Error);
}

// --------------------------------------------- pipeline + registry glue

TEST(PublishStats, FoldsServiceCountersIntoRegistry) {
  ObsFixture fx(false);
  pipeline::Service service;
  (void)service.compile_program(kQuietProg, ProcessorConfig{});
  service.publish_stats();
  const auto get = [](std::string_view name) -> std::uint64_t {
    for (const auto& [k, v] : obs::Registry::instance().counters()) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(get("pipeline.frontend_runs"), 1u);
  EXPECT_EQ(get("pipeline.backend_runs"), 1u);
  EXPECT_EQ(get("pipeline.compiles"), 2u);
  EXPECT_EQ(get("store.program.puts"), 1u);
  EXPECT_EQ(get("pipeline.module_waits"), 0u);
  EXPECT_EQ(get("pipeline.image_waits"), 0u);
  // The wait counters fold each under its own name.
  pipeline::ServiceStats waited;
  waited.module_waits = 3;
  waited.image_waits = 5;
  pipeline::publish_stats(waited);
  EXPECT_EQ(get("pipeline.module_waits"), 3u);
  EXPECT_EQ(get("pipeline.image_waits"), 5u);
}

TEST(BatchSpans, QueueWaitRecordedAcrossThreadPool) {
  ObsFixture fx(true);
  pipeline::Options options;
  options.jobs = 2;
  pipeline::Service service(options);
  // The two configs differ only in a simulation-only field, so they
  // share one codegen slice and therefore one compile task.
  std::vector<ProcessorConfig> configs(2);
  configs[1].pipeline_stages = 3;
  const std::vector<pipeline::RunOutcome> outcomes =
      service.run_batch({kStallProg}, configs);
  for (const pipeline::RunOutcome& out : outcomes) EXPECT_TRUE(out.ok);
  std::size_t compile_tasks = 0;
  std::size_t sim_tasks = 0;
  for (const obs::SpanRecord& s : obs::Registry::instance().spans()) {
    if (s.name != "batch.compile" && s.name != "batch.simulate") continue;
    bool has_wait = false;
    for (const obs::EventArg& a : s.args) {
      has_wait = has_wait || a.key == "queue_wait_ns";
    }
    EXPECT_TRUE(has_wait) << s.name << " span lacks queue_wait_ns";
    (s.name == "batch.compile" ? compile_tasks : sim_tasks) += 1;
  }
  // Both configs share one codegen slice -> one compile task; every
  // batch item gets its own simulate task.
  EXPECT_EQ(compile_tasks, 1u);
  EXPECT_EQ(sim_tasks, 2u);
}

// ---------------------------------------------- disabled-mode allocation

TEST(DisabledMode, SimulatorHotLoopDoesNotAllocate) {
#if defined(CEPIC_TEST_ASAN)
  GTEST_SKIP() << "allocation counting is unreliable under ASan";
#else
  ObsFixture fx(false);
  Program program = compile(kQuietProg, ProcessorConfig{});
  // The interpretive reference path allocates per step by design; the
  // two fast tiers must not.
  for (const ExecTier tier : {ExecTier::Threaded, ExecTier::Decode}) {
    SCOPED_TRACE(to_string(tier));
    SimOptions options;
    options.exec_tier = tier;
    // Compile every threaded block during the warm-up run, so the
    // counted run is the steady state.
    options.threaded_hot_threshold = 1;
    EpicSimulator sim(program, {}, options);
    sim.run();  // warm every lazily grown buffer
    sim.reset();
    // A thread's first flight event registers its ring (one allocation,
    // ever); spans feed the ring even with tracing off, so warm it too.
    { obs::Span warm("warm", "test"); }
    g_allocs.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    sim.run();
    {
      obs::Span span("disabled", "test");
      span.arg("k", std::uint64_t{1});
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
        << "tracing-disabled simulation must not allocate";
  }
#endif
}

}  // namespace
}  // namespace cepic
