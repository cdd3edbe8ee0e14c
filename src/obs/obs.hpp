// cepic::obs — the unified tracing & metrics layer of the toolchain.
//
// One dependency-free library with three pieces:
//
//  * **Scoped spans** (`Span`): RAII timing regions with nesting, named
//    string/integer arguments and monotonic-clock timestamps. Spans are
//    recorded into the global Registry only while tracing is enabled
//    (`set_enabled(true)`); when disabled a Span constructor is a single
//    relaxed atomic load and the object performs no allocation at all —
//    cheap enough to leave instrumentation in release hot paths
//    (tests/test_obs.cpp pins the no-allocation property down).
//
//  * **Typed counters, gauges and histograms** in the same global
//    Registry. Counters are monotonic uint64 atomics, safe to
//    increment from any thread and independent of the tracing switch
//    (they back `--metrics-json` and the unified `--cache-stats`
//    report even when no trace is being collected). Gauges are doubles
//    set by the last writer. Histograms (hist.hpp) are lock-free
//    HDR-style latency distributions whose per-thread shards merge
//    exactly at export, giving p50/p90/p99/max per instrumented seam.
//
//    A sibling **flight recorder** (flight.hpp) keeps a fixed-size
//    per-thread ring of recent span begin/end and counter-delta
//    events even while tracing is off, for post-mortem dumps on fault
//    paths and via the tools' shared `--flight-out` option.
//
//  * **Exporters**: Chrome trace-event JSON (loads directly in Perfetto
//    or chrome://tracing) and a flat metrics report as JSON or CSV.
//    The trace export embeds the counter snapshot under `otherData` so
//    one file is enough for cepic-prof to reconstruct both timing and
//    cache-efficiency summaries.
//
// The simulator's per-cycle timeline (sim/timeline.hpp) reuses the
// TraceEvent model and writer from here but keeps its own event list:
// a timeline is per-run artefact data, not process-wide telemetry.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hist.hpp"
#include "support/text.hpp"

namespace cepic::obs {

// --- global switches --------------------------------------------------

namespace detail {

inline constexpr unsigned kModeTrace = 1u;   ///< span recording
inline constexpr unsigned kModeFlight = 2u;  ///< flight-recorder rings

/// Both switches in one word so the hot-path check (`Span` ctor,
/// `obs::add`) is a single relaxed load whatever the combination.
/// Flight recording is on by default; tracing is opt-in.
extern std::atomic<unsigned> g_mode;

inline unsigned mode() { return g_mode.load(std::memory_order_relaxed); }

/// Defined in flight.cpp: record a counter delta into the calling
/// thread's flight ring (declared here so obs::add stays inline
/// without obs.hpp pulling in flight.hpp).
void flight_add(std::string_view name, std::uint64_t delta);

/// Shared file-write helper (throws cepic::Error on I/O failure).
void write_text_file(const std::string& path, std::string_view text);

}  // namespace detail

/// True while span recording is on. Counters/gauges/histograms and the
/// flight recorder ignore this.
bool enabled();

/// Flip span recording. Turning it on (re)anchors the trace epoch so
/// exported timestamps start near zero.
void set_enabled(bool on);

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
std::uint64_t now_ns();

// --- events -----------------------------------------------------------

/// One named argument of a span / trace event. `numeric` renders the
/// value bare in JSON instead of quoted.
struct EventArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

/// One Chrome trace-event. `ts`/`dur` are in the writer's time unit
/// (microseconds for wall-clock spans; simulated cycles for the
/// simulator timeline, which Perfetto simply renders as "us").
struct TraceEvent {
  char ph = 'X';  ///< 'X' complete, 'I' instant, 'M' metadata, 'C' counter
  std::string name;
  std::string cat;
  double ts = 0;
  double dur = 0;
  int pid = 1;
  int tid = 1;
  std::vector<EventArg> args;
};

/// Render `events` as a complete Chrome trace JSON document.
/// `other_data` entries land under "otherData" (counter snapshots,
/// run descriptions); pass {} for none.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const std::vector<EventArg>& other_data);

// --- the registry -----------------------------------------------------

/// A completed span as stored by the registry.
struct SpanRecord {
  std::string name;
  std::string cat;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  int tid = 0;  ///< small dense id assigned per recording thread
  std::vector<EventArg> args;
};

/// Process-global store of spans, counters and gauges. All methods are
/// thread-safe. Tests may reset() it; tools normally never do.
class Registry {
public:
  static Registry& instance();

  /// Monotonic counter cell. The returned reference stays valid for the
  /// life of the process; hot paths should cache it.
  std::atomic<std::uint64_t>& counter(std::string_view name);

  /// Set a counter to an absolute value (used when folding externally
  /// accumulated statistics, e.g. pipeline::ServiceStats, into the
  /// registry).
  void set_counter(std::string_view name, std::uint64_t value);

  void set_gauge(std::string_view name, double value);

  /// Latency histogram cell (HDR-style; see hist.hpp). Node-stable
  /// like counter(): the reference stays valid for the life of the
  /// process, so hot paths should look it up once and cache it.
  Histogram& histogram(std::string_view name);

  void record(SpanRecord&& span);

  /// Dense id for the calling thread (assigned on first use).
  int thread_id();

  // --- snapshots (name-sorted, for deterministic exports) ---
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms() const;
  std::vector<SpanRecord> spans() const;

  /// Nanosecond timestamp all exported span times are relative to.
  std::uint64_t epoch_ns() const;
  void set_epoch_ns(std::uint64_t ns);

  /// Drop all spans, counters, gauges and thread ids (tests only).
  void reset();

private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// --- spans ------------------------------------------------------------

/// RAII scoped span. Construction snapshots the monotonic clock and the
/// thread id; destruction records the completed span into the Registry
/// and (while the flight recorder is on) begin/end events into the
/// calling thread's flight ring. With tracing *and* flight recording
/// off the whole object is inert: one relaxed load, no clock read, no
/// allocation, no recording.
class Span {
public:
  explicit Span(std::string_view name, std::string_view cat = "");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is live and will be recorded in the trace.
  bool active() const { return active_; }

  /// Attach arguments (no-ops when inactive).
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, std::uint64_t value);

private:
  bool active_ = false;
  std::uint8_t flight_len_ = 0;  ///< name length captured for the ring
  char flight_name_[24];         ///< kFlightNameChars + 1 (checked in obs.cpp)
  std::uint64_t start_ns_ = 0;
  SpanRecord rec_;
};

/// Increment a registry counter (always live; independent of tracing).
/// While the flight recorder is on the delta is also stamped into the
/// calling thread's flight ring.
inline void add(std::string_view name, std::uint64_t delta = 1) {
  Registry::instance().counter(name).fetch_add(delta,
                                               std::memory_order_relaxed);
  if ((detail::mode() & detail::kModeFlight) != 0) {
    detail::flight_add(name, delta);
  }
}

/// Record a sample into a registry histogram (always live; independent
/// of tracing). Hot paths observing at high rate should cache the
/// Registry::histogram reference instead.
inline void observe(std::string_view name, std::uint64_t value) {
  Registry::instance().histogram(name).observe(value);
}

/// RAII: observe the enclosing scope's wall-clock duration in
/// nanoseconds into the named registry histogram. Always live, like
/// observe() — this is how latency seams feed their distributions even
/// when tracing is off. `name` must outlive the scope (string
/// literals in practice).
class ScopedObserve {
public:
  explicit ScopedObserve(std::string_view name)
      : name_(name), start_ns_(now_ns()) {}
  ~ScopedObserve() { observe(name_, now_ns() - start_ns_); }

  ScopedObserve(const ScopedObserve&) = delete;
  ScopedObserve& operator=(const ScopedObserve&) = delete;

private:
  std::string_view name_;
  std::uint64_t start_ns_;
};

// --- registry exporters -----------------------------------------------

/// All recorded spans as a Chrome trace JSON document (ts/dur in
/// microseconds relative to the trace epoch), with the counter snapshot
/// embedded under otherData.
std::string trace_json();

/// Flat metrics report:
/// {"counters":{...},"gauges":{...},"histograms":{...}}, name-sorted.
/// Each histogram exports count/sum/max plus derived p50/p90/p99.
std::string metrics_json();

/// Flat metrics report as CSV: kind,name,value — name-sorted, with one
/// `histogram,<name>.<stat>,<value>` row per exported histogram stat.
std::string metrics_csv();

/// Write helpers (throw cepic::Error on I/O failure).
void write_trace_json(const std::string& path);
void write_metrics_json(const std::string& path);
void write_metrics_csv(const std::string& path);

/// JSON string escaping (support/text.hpp), re-exported for exporters
/// that spell it obs::json_escape.
using cepic::json_escape;

}  // namespace cepic::obs
