#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/flight.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::obs {

namespace detail {

std::atomic<unsigned> g_mode{kModeFlight};

}  // namespace detail

namespace {

std::string number_text(double v) {
  // Trim a fixed-precision rendering so 12.000 exports as 12 and
  // fractional microseconds keep three digits.
  std::string s = fixed(v, 3);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

}  // namespace

bool enabled() {
  return (detail::mode() & detail::kModeTrace) != 0;
}

void set_enabled(bool on) {
  if (on) {
    if (!enabled()) Registry::instance().set_epoch_ns(now_ns());
    detail::g_mode.fetch_or(detail::kModeTrace, std::memory_order_relaxed);
  } else {
    detail::g_mode.fetch_and(~detail::kModeTrace,
                             std::memory_order_relaxed);
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Registry ---------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mu;
  // Counters are node-stable: the atomic lives behind a unique_ptr so
  // references handed out by counter() survive rehashing.
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>,
           std::less<>>
      counters;
  std::map<std::string, double, std::less<>> gauges;
  // Histograms are node-stable for the same reason as counters.
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists;
  std::vector<SpanRecord> spans;
  std::map<std::thread::id, int> thread_ids;
  std::uint64_t epoch_ns = 0;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

std::atomic<std::uint64_t>& Registry::counter(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.counters.find(name);
  if (it == i.counters.end()) {
    it = i.counters
             .emplace(std::string(name),
                      std::make_unique<std::atomic<std::uint64_t>>(0))
             .first;
  }
  return *it->second;
}

void Registry::set_counter(std::string_view name, std::uint64_t value) {
  counter(name).store(value, std::memory_order_relaxed);
}

void Registry::set_gauge(std::string_view name, double value) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.gauges.find(name);
  if (it == i.gauges.end()) {
    i.gauges.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.hists.find(name);
  if (it == i.hists.end()) {
    it = i.hists.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::record(SpanRecord&& span) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.spans.push_back(std::move(span));
}

int Registry::thread_id() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  const auto [it, inserted] = i.thread_ids.emplace(
      std::this_thread::get_id(), static_cast<int>(i.thread_ids.size()) + 1);
  (void)inserted;
  return it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(i.counters.size());
  for (const auto& [name, cell] : i.counters) {
    out.emplace_back(name, cell->load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return {i.gauges.begin(), i.gauges.end()};
}

std::vector<std::pair<std::string, HistogramSnapshot>> Registry::histograms()
    const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(i.hists.size());
  for (const auto& [name, hist] : i.hists) {
    out.emplace_back(name, hist->snapshot());
  }
  return out;
}

std::vector<SpanRecord> Registry::spans() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.spans;
}

std::uint64_t Registry::epoch_ns() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.epoch_ns;
}

void Registry::set_epoch_ns(std::uint64_t ns) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.epoch_ns = ns;
}

void Registry::reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.counters.clear();
  i.gauges.clear();
  i.hists.clear();
  i.spans.clear();
  i.thread_ids.clear();
  i.epoch_ns = 0;
}

// --- Span -------------------------------------------------------------

Span::Span(std::string_view name, std::string_view cat) {
  static_assert(sizeof(flight_name_) == kFlightNameChars + 1,
                "Span's fixed name buffer must fit a flight-event name");
  const unsigned mode = detail::mode();
  if (mode == 0) return;  // inert: one relaxed load, nothing else
  if ((mode & detail::kModeFlight) != 0) {
    // Capture the (truncated) name for the matching end event; the
    // fixed buffer keeps the flight path allocation-free.
    const std::size_t n = std::min(name.size(), kFlightNameChars);
    std::memcpy(flight_name_, name.data(), n);
    flight_name_[n] = '\0';
    flight_len_ = static_cast<std::uint8_t>(n);
  }
  start_ns_ = now_ns();
  if (flight_len_ != 0) {
    flight_record(FlightEvent::kBegin, {flight_name_, flight_len_}, 0,
                  start_ns_);
  }
  if ((mode & detail::kModeTrace) == 0) return;
  active_ = true;
  rec_.name.assign(name.data(), name.size());
  rec_.cat.assign(cat.data(), cat.size());
  rec_.tid = Registry::instance().thread_id();
}

Span::~Span() {
  if (!active_ && flight_len_ == 0) return;
  const std::uint64_t end_ns = now_ns();
  if (flight_len_ != 0) {
    flight_record(FlightEvent::kEnd, {flight_name_, flight_len_},
                  end_ns - start_ns_, end_ns);
  }
  if (!active_) return;
  rec_.start_ns = start_ns_;
  rec_.dur_ns = end_ns - start_ns_;
  Registry::instance().record(std::move(rec_));
}

void Span::arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  rec_.args.push_back({std::string(key), std::string(value), false});
}

void Span::arg(std::string_view key, std::uint64_t value) {
  if (!active_) return;
  rec_.args.push_back({std::string(key), cat(value), true});
}

// --- exporters --------------------------------------------------------

namespace {

void append_args(std::string& out, const std::vector<EventArg>& args) {
  out += "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ",";
    out += cat("\"", json_escape(args[i].key), "\":");
    if (args[i].numeric) {
      out += args[i].value;
    } else {
      out += cat("\"", json_escape(args[i].value), "\"");
    }
  }
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const std::vector<EventArg>& other_data) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) out += ",";
    out += cat("\n{\"ph\":\"", e.ph, "\",\"name\":\"", json_escape(e.name),
               "\",\"pid\":", e.pid, ",\"tid\":", e.tid);
    if (!e.cat.empty()) out += cat(",\"cat\":\"", json_escape(e.cat), "\"");
    out += cat(",\"ts\":", number_text(e.ts));
    if (e.ph == 'X') out += cat(",\"dur\":", number_text(e.dur));
    if (!e.args.empty()) {
      out += ",\"args\":";
      append_args(out, e.args);
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  if (!other_data.empty()) {
    out += ",\"otherData\":";
    append_args(out, other_data);
  }
  out += "}\n";
  return out;
}

std::string trace_json() {
  Registry& reg = Registry::instance();
  const std::uint64_t epoch = reg.epoch_ns();
  std::vector<SpanRecord> spans = reg.spans();
  // Deterministic order: by start time, then thread, then name.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.name < b.name;
                   });
  std::vector<TraceEvent> events;
  events.reserve(spans.size());
  for (SpanRecord& s : spans) {
    TraceEvent e;
    e.ph = 'X';
    e.name = std::move(s.name);
    e.cat = s.cat.empty() ? "span" : std::move(s.cat);
    e.ts = static_cast<double>(s.start_ns - std::min(epoch, s.start_ns)) / 1e3;
    e.dur = static_cast<double>(s.dur_ns) / 1e3;
    e.tid = s.tid;
    e.args = std::move(s.args);
    events.push_back(std::move(e));
  }
  std::vector<EventArg> other;
  for (const auto& [name, value] : reg.counters()) {
    other.push_back({cat("counter.", name), cat(value), true});
  }
  for (const auto& [name, value] : reg.gauges()) {
    other.push_back({cat("gauge.", name), number_text(value), true});
  }
  for (const auto& [name, snap] : reg.histograms()) {
    other.push_back({cat("histogram.", name, ".count"), cat(snap.count), true});
    other.push_back(
        {cat("histogram.", name, ".p50"), cat(snap.quantile(0.50)), true});
    other.push_back(
        {cat("histogram.", name, ".p99"), cat(snap.quantile(0.99)), true});
    other.push_back({cat("histogram.", name, ".max"), cat(snap.max), true});
  }
  return chrome_trace_json(events, other);
}

namespace {

// The per-histogram stats every exporter emits, in export order.
std::vector<std::pair<const char*, std::uint64_t>> histogram_stats(
    const HistogramSnapshot& snap) {
  return {{"count", snap.count},        {"sum", snap.sum},
          {"max", snap.max},            {"p50", snap.quantile(0.50)},
          {"p90", snap.quantile(0.90)}, {"p99", snap.quantile(0.99)}};
}

}  // namespace

std::string metrics_json() {
  Registry& reg = Registry::instance();
  std::string out = "{\n  \"counters\": {";
  const auto counters = reg.counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += cat(i == 0 ? "\n" : ",\n", "    \"", json_escape(counters[i].first),
               "\": ", counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  const auto gauges = reg.gauges();
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += cat(i == 0 ? "\n" : ",\n", "    \"", json_escape(gauges[i].first),
               "\": ", number_text(gauges[i].second));
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  const auto hists = reg.histograms();
  for (std::size_t i = 0; i < hists.size(); ++i) {
    out += cat(i == 0 ? "\n" : ",\n", "    \"", json_escape(hists[i].first),
               "\": {");
    const auto stats = histogram_stats(hists[i].second);
    for (std::size_t j = 0; j < stats.size(); ++j) {
      out += cat(j == 0 ? "" : ", ", "\"", stats[j].first,
                 "\": ", stats[j].second);
    }
    out += "}";
  }
  out += hists.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string metrics_csv() {
  Registry& reg = Registry::instance();
  std::string out = "kind,name,value\n";
  for (const auto& [name, value] : reg.counters()) {
    out += cat("counter,", name, ",", value, "\n");
  }
  for (const auto& [name, value] : reg.gauges()) {
    out += cat("gauge,", name, ",", number_text(value), "\n");
  }
  for (const auto& [name, snap] : reg.histograms()) {
    for (const auto& [stat, value] : histogram_stats(snap)) {
      out += cat("histogram,", name, ".", stat, ",", value, "\n");
    }
  }
  return out;
}

namespace detail {

void write_text_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw Error("failed writing " + path);
}

}  // namespace detail

void write_trace_json(const std::string& path) {
  detail::write_text_file(path, trace_json());
}

void write_metrics_json(const std::string& path) {
  detail::write_text_file(path, metrics_json());
}

void write_metrics_csv(const std::string& path) {
  detail::write_text_file(path, metrics_csv());
}

}  // namespace cepic::obs
