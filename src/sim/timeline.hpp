// Per-cycle event timeline of the EPIC simulator, exported as Chrome
// trace-event JSON (cepic-sim --timeline-out; loads in Perfetto or
// chrome://tracing). One track per unit of the paper's Fig. 2 core:
//
//   issue     — one slice per issued MultiOp (ts = issue cycle, dur 1)
//   stall     — stall attribution in the gap before/after each issue:
//               scoreboard (operand-not-ready), reg-port (§3.2 budget),
//               mem-contention (unified-memory fetch steal) and
//               branch-bubble slices whose durations are exactly the
//               cycles the SimStats stall counters account
//   ALU0..N-1 — committed ALU-class ops, round-robin over the
//               configured ALUs, dur = result latency
//   LSU/CMPU/BRU — same for the load-store, compare-to-predicate and
//               branch units
//
// Nullified (false-guard) ops appear on their unit with category
// "nullified" and dur 1: they occupied the slot but produced nothing.
//
// The trace time unit is the simulated cycle (rendered by Perfetto as
// "us"). Totals across all tracks reconcile with SimStats by
// construction — tests/test_obs.cpp re-derives the per-class sums from
// the exported JSON and asserts equality with the run's SimStats.
//
// The issue track also renders as the text execution trace (to_text;
// cepic-sim --trace), so the timeline is the simulator's one per-bundle
// recorder.
//
// Recording is opt-in (EpicSimulator::set_timeline) and rides the
// decode-cache fast path: the simulator only ever does three integer
// stores per step plus, when a timeline is attached, one op-list
// append per executed op. With no timeline attached the hot loop is
// unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/isa.hpp"

namespace cepic {

struct Program;

class SimTimeline {
public:
  /// `max_bundles` caps the number of per-bundle event groups kept in
  /// memory (0 = unlimited). Past the cap, totals keep accumulating and
  /// both renderings carry an explicit truncation marker — never a
  /// silently shortened timeline.
  explicit SimTimeline(const ProcessorConfig& config,
                       std::uint64_t max_bundles = 0);

  /// One executed (non-NOP) operation of a bundle, in slot order.
  struct OpEvent {
    FuClass fu = FuClass::None;
    std::string_view name;
    unsigned latency = 1;
    bool nullified = false;
  };

  /// Everything the simulator knows about one issued bundle.
  struct BundleEvent {
    std::uint64_t fetch = 0;       ///< cycle the bundle reached issue
    std::uint64_t issue = 0;       ///< cycle it actually issued
    std::uint64_t sb_stall = 0;    ///< scoreboard stall cycles
    std::uint64_t port_stall = 0;  ///< §3.2 reg-port stall cycles
    std::uint32_t pc = 0;          ///< bundle index
    unsigned useful_ops = 0;
    bool mem_contention = false;   ///< one fetch-steal cycle applied
    unsigned branch_bubbles = 0;   ///< taken-branch flush cycles
    bool halt = false;
    std::uint64_t end_cycle = 0;   ///< simulator clock after the bundle
  };

  void record(const BundleEvent& bundle, const std::vector<OpEvent>& ops);

  /// Cycle accounting accumulated alongside the events; matches the
  /// run's SimStats field-for-field (asserted in tests).
  struct Totals {
    std::uint64_t cycles = 0;
    std::uint64_t bundles_issued = 0;
    std::uint64_t stall_scoreboard = 0;
    std::uint64_t stall_reg_ports = 0;
    std::uint64_t stall_mem_contention = 0;
    std::uint64_t branch_bubbles = 0;
    std::uint64_t ops_executed = 0;
    std::uint64_t ops_committed = 0;
    std::uint64_t ops_nullified = 0;
  };
  const Totals& totals() const { return totals_; }
  bool truncated() const { return truncated_; }

  /// Complete Chrome trace JSON document: track-naming metadata, the
  /// per-cycle slices, and the totals under "otherData".
  std::string to_chrome_json() const;

  /// The issue track as the text execution trace, one line per kept
  /// bundle: `cycle N  bundle P  op || op` (or `nop`), with the op text
  /// read from `program`, the Program that was simulated. Ends with a
  /// `[timeline truncated at N bundles]` line when the cap was hit.
  std::string to_text(const Program& program) const;

private:
  struct Slice {
    std::uint8_t track = 0;      ///< index into track_names_
    std::uint8_t kind = 0;       ///< SliceKind below
    std::uint32_t pc = 0;
    std::uint64_t ts = 0;        ///< cycle
    std::uint64_t dur = 0;       ///< cycles
    std::string_view op_name;    ///< FU slices only (static OpInfo name)
    unsigned useful_ops = 0;     ///< issue slices only
  };

  unsigned fu_track(FuClass fu, unsigned& alu_rr) const;
  std::string truncation_note() const;

  ProcessorConfig config_;
  std::uint64_t max_bundles_ = 0;
  bool truncated_ = false;
  std::vector<std::string> track_names_;
  std::vector<Slice> slices_;
  Totals totals_;
};

}  // namespace cepic
