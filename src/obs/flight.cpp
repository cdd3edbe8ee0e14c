#include "obs/flight.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"
#include "support/text.hpp"

namespace cepic::obs {

namespace {

static_assert((kFlightCapacity & (kFlightCapacity - 1)) == 0,
              "ring indexing masks with capacity - 1");

// One ring per recording thread. Only its owner writes; `seq` is
// release-published after each slot write so a racing reader never
// mistakes a half-written slot for a retained one (slots being
// *overwritten* mid-dump are still possible — dumps are exact only
// when quiescent, which fault paths and post-join exports are).
struct FlightRing {
  std::atomic<std::uint64_t> seq{0};
  std::array<FlightEvent, kFlightCapacity> slots{};
};

struct FlightState {
  std::mutex mu;
  // Rings are owned here and never destroyed. A thread's ring goes to
  // `idle` when the thread exits and the next new thread reuses it, so
  // the count is bounded by the most threads ever recording at once
  // (not by every thread a long run starts). A dead worker's last
  // events stay dumpable until its ring is reused.
  std::vector<std::unique_ptr<FlightRing>> rings;
  std::vector<FlightRing*> idle;
  std::string fault_path;
};

FlightState& state() {
  // Leaked: fault dumps may run during shutdown, after static dtors.
  static FlightState* s = new FlightState;
  return *s;
}

// The calling thread's hold on a ring, taken on its first event and
// handed back at thread exit. Events recorded after the hand-back (from
// later thread-exit destructors) are dropped rather than leaking a ring.
struct RingLease {
  FlightRing* ring = nullptr;
  bool returned = false;
  ~RingLease() {
    returned = true;
    if (ring == nullptr) return;
    FlightState& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.idle.push_back(ring);
    ring = nullptr;
  }
};

thread_local RingLease t_lease;

FlightRing* this_thread_ring() {
  RingLease& lease = t_lease;
  if (lease.ring != nullptr || lease.returned) return lease.ring;
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.idle.empty()) {
    st.rings.push_back(std::make_unique<FlightRing>());
    lease.ring = st.rings.back().get();
  } else {
    lease.ring = st.idle.back();
    st.idle.pop_back();
    lease.ring->seq.store(0, std::memory_order_relaxed);  // a fresh ring
  }
  return lease.ring;
}

}  // namespace

bool flight_enabled() {
  return (detail::mode() & detail::kModeFlight) != 0;
}

void set_flight_enabled(bool on) {
  if (on) {
    detail::g_mode.fetch_or(detail::kModeFlight, std::memory_order_relaxed);
  } else {
    detail::g_mode.fetch_and(~detail::kModeFlight,
                             std::memory_order_relaxed);
  }
}

void flight_record(FlightEvent::Kind kind, std::string_view name,
                   std::uint64_t value, std::uint64_t ts_ns) {
  if (!flight_enabled()) return;
  FlightRing* const owned = this_thread_ring();
  if (owned == nullptr) return;
  FlightRing& ring = *owned;
  const std::uint64_t seq = ring.seq.load(std::memory_order_relaxed);
  FlightEvent& e = ring.slots[seq & (kFlightCapacity - 1)];
  e.ts_ns = ts_ns != 0 ? ts_ns : now_ns();
  e.value = value;
  e.kind = kind;
  const std::size_t n = std::min(name.size(), kFlightNameChars);
  std::memcpy(e.name, name.data(), n);
  e.name[n] = '\0';
  ring.seq.store(seq + 1, std::memory_order_release);
}

namespace detail {

void flight_add(std::string_view name, std::uint64_t delta) {
  flight_record(FlightEvent::kCounter, name, delta);
}

}  // namespace detail

void set_flight_fault_path(std::string path) {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.fault_path = std::move(path);
}

void flight_record_fault(std::string_view what) {
  flight_record(FlightEvent::kInstant, cat("fault: ", what));
  std::string path;
  {
    FlightState& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    path = st.fault_path;
  }
  if (path.empty()) return;
  try {
    write_flight_json(path);
  } catch (...) {
    // A failing dump must not mask the fault being recorded.
  }
}

std::string flight_trace_json() {
  // Snapshot every ring under the registration lock (the ring *list*
  // is what the lock guards; slot reads race benignly, see above).
  struct RingSnap {
    int tid;
    std::vector<FlightEvent> events;  // oldest retained first
  };
  std::vector<RingSnap> snaps;
  std::vector<EventArg> other;
  {
    FlightState& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    int tid = 0;
    for (const auto& ring : st.rings) {
      ++tid;
      const std::uint64_t seq = ring->seq.load(std::memory_order_acquire);
      const std::uint64_t retained =
          std::min<std::uint64_t>(seq, kFlightCapacity);
      RingSnap snap;
      snap.tid = tid;
      snap.events.reserve(retained);
      for (std::uint64_t i = seq - retained; i < seq; ++i) {
        snap.events.push_back(ring->slots[i & (kFlightCapacity - 1)]);
      }
      other.push_back({cat("flight.ring", tid, ".recorded"), cat(seq), true});
      other.push_back(
          {cat("flight.ring", tid, ".dropped"), cat(seq - retained), true});
      snaps.push_back(std::move(snap));
    }
  }

  // Anchor exported timestamps at the oldest instant in the dump ('X'
  // events start at ts - dur, which may predate every retained ts).
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const RingSnap& snap : snaps) {
    for (const FlightEvent& e : snap.events) {
      const std::uint64_t at =
          e.kind == FlightEvent::kEnd && e.value <= e.ts_ns
              ? e.ts_ns - e.value
              : e.ts_ns;
      epoch = std::min(epoch, at);
    }
  }

  std::vector<TraceEvent> events;
  for (const RingSnap& snap : snaps) {
    // Replay the ring in order: a kEnd closes the most recent open
    // kBegin (and renders as the complete event); begins still open at
    // the end of the ring — in flight when the dump was taken — render
    // as instants.
    std::vector<const FlightEvent*> open;
    auto emit = [&](const FlightEvent& e) {
      TraceEvent out;
      out.tid = snap.tid;
      out.name = e.name;
      switch (e.kind) {
        case FlightEvent::kEnd: {
          // Same start-time rule as the epoch scan above, so the
          // start never precedes the epoch.
          const std::uint64_t start =
              e.value <= e.ts_ns ? e.ts_ns - e.value : e.ts_ns;
          out.ph = 'X';
          out.cat = "flight";
          out.ts = static_cast<double>(start - epoch) / 1e3;
          out.dur = static_cast<double>(e.value) / 1e3;
          break;
        }
        case FlightEvent::kCounter:
          out.ph = 'C';
          out.cat = "counter";
          out.ts = static_cast<double>(e.ts_ns - epoch) / 1e3;
          out.args.push_back({"delta", cat(e.value), true});
          break;
        case FlightEvent::kBegin:
          out.ph = 'I';
          out.cat = "flight";
          out.name += " (in flight)";
          out.ts = static_cast<double>(e.ts_ns - epoch) / 1e3;
          break;
        case FlightEvent::kInstant:
          out.ph = 'I';
          out.cat = "flight";
          out.ts = static_cast<double>(e.ts_ns - epoch) / 1e3;
          break;
      }
      events.push_back(std::move(out));
    };
    for (const FlightEvent& e : snap.events) {
      switch (e.kind) {
        case FlightEvent::kBegin:
          open.push_back(&e);
          break;
        case FlightEvent::kEnd:
          if (!open.empty()) open.pop_back();
          emit(e);
          break;
        default:
          emit(e);
      }
    }
    for (const FlightEvent* e : open) emit(*e);
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.tid < b.tid;
                   });
  other.push_back({"flight.capacity", cat(kFlightCapacity), true});
  return chrome_trace_json(events, other);
}

void write_flight_json(const std::string& path) {
  detail::write_text_file(path, flight_trace_json());
}

std::size_t flight_ring_count() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.rings.size();
}

void flight_reset() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  for (const auto& ring : st.rings) {
    ring->seq.store(0, std::memory_order_relaxed);
  }
  st.fault_path.clear();
  set_flight_enabled(true);
}

}  // namespace cepic::obs
