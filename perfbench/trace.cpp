#include "trace.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

namespace obs = cepic::obs;

Tracer::Tracer() : origin_ns_(now_ns()) {}

std::uint32_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  span.tid = obs::Registry::instance().thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::to_chrome_json(const std::vector<SpanRecord>& spans) const {
  std::vector<obs::TraceEvent> events;
  events.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    obs::TraceEvent e;
    e.name = s.layer;
    e.cat = s.phase == Phase::Setup ? "setup" : "pass";
    e.tid = s.tid;
    e.ts = static_cast<double>(s.start_ns - origin_ns_) / 1e3;
    e.dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    e.args = {{"id", std::to_string(s.id), true},
              {"parent", std::to_string(s.parent), true},
              {"point", std::to_string(s.point), true},
              {"pass", std::to_string(s.pass), true}};
    events.push_back(std::move(e));
  }
  return obs::chrome_trace_json(events, {});
}

Span::Span(Tracer* tracer, const char* layer, std::uint32_t parent, int point)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.layer = layer;
  record_.phase = tracer_->phase();
  record_.pass = tracer_->pass();
  record_.point = point;
  record_.parent = parent;
  record_.id = tracer_->next_id();
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  tracer_->record(std::move(record_));
}

std::map<std::string, double> busy_ms(const std::vector<SpanRecord>& spans,
                                      Phase phase, int pass) {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    if (s.phase == phase && s.pass == pass) out[s.layer] += s.ms();
  }
  return out;
}

std::vector<SpanRecord> with_program_spans(
    std::vector<SpanRecord> spans,
    const std::vector<obs::SpanRecord>& program, std::string_view name,
    std::string_view cat, std::string_view within, const std::string& as_layer) {
  // The matching program spans per thread, by start time.
  std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> by_tid;
  for (const obs::SpanRecord& p : program) {
    if (p.name == name && p.cat == cat) {
      by_tid[p.tid].emplace_back(p.start_ns, p.start_ns + p.dur_ns);
    }
  }
  for (auto& [tid, list] : by_tid) std::sort(list.begin(), list.end());
  std::uint32_t next_id = 1;
  for (const SpanRecord& s : spans) next_id = std::max(next_id, s.id + 1);

  const std::size_t n = spans.size();
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord outer = spans[i];
    if (outer.layer != within) continue;
    const auto it = by_tid.find(outer.tid);
    if (it == by_tid.end()) continue;
    const auto& list = it->second;
    for (auto p = std::lower_bound(list.begin(), list.end(),
                                   std::make_pair(outer.start_ns, std::uint64_t{0}));
         p != list.end() && p->first < outer.end_ns; ++p) {
      if (p->second > outer.end_ns) continue;
      SpanRecord child;
      child.layer = as_layer;
      child.phase = outer.phase;
      child.pass = outer.pass;
      child.point = outer.point;
      child.id = next_id++;
      child.parent = outer.id;
      child.tid = outer.tid;
      child.start_ns = p->first;
      child.end_ns = p->second;
      spans.push_back(std::move(child));
    }
  }
  return spans;
}

}  // namespace perfbench
