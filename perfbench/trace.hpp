// In-memory span recorder for the benchmark's traced run. Spans are
// recorded around calls into each layer's public functions, from the
// benchmark's own code; the program under test adds no tracing. Spans
// stay in memory and are written once, as Chrome trace-event JSON (via
// obs::chrome_trace_json), when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

/// The obs clock, so the benchmark's spans and the program's own obs
/// spans share one time base.
using cepic::obs::now_ns;

/// Which part of a request a span belongs to.
enum class Phase : std::uint8_t { Setup, Pass };

struct SpanRecord {
  std::string layer;  ///< e.g. "backend.schedule"
  Phase phase = Phase::Pass;
  int pass = -1;      ///< traced pass index, -1 in set-up
  int point = -1;     ///< design point id, -1 when not per point
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  int tid = 0;               ///< obs::Registry::thread_id() of the caller
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Thread-safe span sink. One instance per traced run.
class Tracer {
public:
  Tracer();

  /// Where new spans go: the phase and traced-pass index they are
  /// tagged with. Set between passes, never while tasks run.
  void set_context(Phase phase, int pass) {
    phase_ = phase;
    pass_ = pass;
  }

  std::uint32_t next_id();
  void record(SpanRecord span);

  /// A copy of every span recorded so far.
  std::vector<SpanRecord> spans() const;

  /// `spans` as a Chrome trace document (complete "X" events,
  /// microseconds from the tracer's creation, id/parent/point/pass as
  /// args), valid against schemas/chrome-trace.schema.json.
  std::string to_chrome_json(const std::vector<SpanRecord>& spans) const;

  Phase phase() const { return phase_; }
  int pass() const { return pass_; }

private:
  std::uint64_t origin_ns_;
  Phase phase_ = Phase::Setup;
  int pass_ = -1;
  mutable std::mutex mu_;  ///< guards everything below
  std::uint32_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span. A null tracer makes it a no-op, so the same call sites
/// serve traced and untraced code.
class Span {
public:
  Span(Tracer* tracer, const char* layer, std::uint32_t parent = 0,
       int point = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return record_.id; }

private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// Busy milliseconds per layer, summed over the spans that match.
std::map<std::string, double> busy_ms(const std::vector<SpanRecord>& spans,
                                      Phase phase, int pass);

/// `spans` plus, as children named `as_layer`, the program's own obs
/// spans called `name` in category `cat` that ran inside a span of
/// layer `within` on the same thread.
std::vector<SpanRecord> with_program_spans(
    std::vector<SpanRecord> spans,
    const std::vector<cepic::obs::SpanRecord>& program, std::string_view name,
    std::string_view cat, std::string_view within, const std::string& as_layer);

}  // namespace perfbench
