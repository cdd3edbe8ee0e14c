// cepic::obs flight recorder — an always-on, fixed-size per-thread ring
// of recent span begin/end and counter-delta events.
//
// Unlike full tracing (`set_enabled`), the flight recorder is on by
// default and stays on in release builds: recording an event is a
// timestamp read plus a POD store into a preallocated ring slot (names
// are truncated into a fixed char buffer — no allocation, no locks
// after a thread's first event leases its ring).  A ring is reused
// after thread exit: the next new thread takes it over, so the ring
// count tracks the most threads recording at once.  When something
// faults, the last ~kFlightCapacity events per thread are still there:
// `flight_record_fault()` stamps the fault and, when a dump path was
// configured (tools' shared `--flight-out` flag), writes the merged
// rings as a Chrome trace JSON file that validates against
// schemas/chrome-trace.schema.json — a triageable last-N-milliseconds
// view of a crashing simulator run or a faulting batch task.
//
// The enable check shares the one-relaxed-load discipline with `Span`:
// both switches live in a single atomic word (obs.hpp detail::g_mode),
// so a Span constructor with tracing *and* flight recording off is
// still exactly one relaxed load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cepic::obs {

/// Ring capacity per thread (events). Power of two.
inline constexpr std::size_t kFlightCapacity = 4096;

/// Event names are truncated to this many characters in the ring.
inline constexpr std::size_t kFlightNameChars = 23;

/// One recorded flight event. POD: rings are preallocated arrays.
struct FlightEvent {
  enum Kind : std::uint8_t {
    kBegin,    ///< span opened (value unused)
    kEnd,      ///< span closed (value = duration ns)
    kCounter,  ///< obs::add (value = delta)
    kInstant,  ///< one-off marker, e.g. a recorded fault (value unused)
  };
  std::uint64_t ts_ns = 0;
  std::uint64_t value = 0;
  Kind kind = kBegin;
  char name[kFlightNameChars + 1] = {};
};

/// True while the flight recorder accepts events (default: on).
bool flight_enabled();
void set_flight_enabled(bool on);

/// Record one event into the calling thread's ring. No-op while
/// disabled. The first event on a thread leases it a ring — one an
/// exited thread handed back, else a new one; after that the call never
/// allocates. The lease ends at thread exit; until a new thread reuses
/// the ring, the dead thread's events stay in dumps. `ts_ns` of 0 (the
/// default) stamps the current clock; tests pass explicit timestamps
/// for deterministic dumps.
void flight_record(FlightEvent::Kind kind, std::string_view name,
                   std::uint64_t value = 0, std::uint64_t ts_ns = 0);

/// Configure the file `flight_record_fault` dumps to ("" disables
/// fault dumps; on-demand dumps via write_flight_json are unaffected).
void set_flight_fault_path(std::string path);

/// Stamp a fault instant (name "fault", arg-less; `what` truncated into
/// the event name after "fault: ") and, if a fault path is configured,
/// dump the rings there. Safe to call from catch blocks on any thread.
void flight_record_fault(std::string_view what);

/// Merged rings as a Chrome trace JSON document: span ends render as
/// 'X' complete events, unmatched begins as 'I' instants ("<name>
/// (in flight)"), counter deltas as 'C' events; per-ring recorded and
/// dropped totals land under otherData. Timestamps are relative to the
/// oldest retained event. Readers race benignly with writers on other
/// threads (torn slots are possible mid-flight); dump quiescently —
/// after joins or from a fault handler — for an exact view.
std::string flight_trace_json();

/// Write flight_trace_json() to `path` (throws cepic::Error on I/O
/// failure).
void write_flight_json(const std::string& path);

/// Rings allocated so far: at most the peak number of threads that
/// recorded at the same time, since exited threads' rings are reused.
std::size_t flight_ring_count();

/// Tests only: zero every ring (slots become unreachable), clear the
/// fault path and re-enable recording. Rings stay allocated so leased
/// per-thread pointers never dangle.
void flight_reset();

}  // namespace cepic::obs
