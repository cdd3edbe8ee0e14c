// Static schedule analyzer: predicts the cycle behaviour of an
// assembled Program by walking bundles with the Mdes latency/port model
// — the same issue rules the simulator applies, evaluated over
// statically-known values (registers start at their reset values;
// memory loads are unknown).  On programs whose control flow and guard
// predicates resolve statically the prediction is *exact*: the returned
// SimStats compares field-for-field equal to EpicSimulator::run().
// When a branch, guard, BTR target or memory address depends on an
// unknown value the walk stops and only the per-bundle worst-case bound
// below applies.  Statically-resolved faults (unsupported op, branch
// past end, null-guard / out-of-range / misaligned access, and a
// register index past the end of its file, which the simulator refuses
// at construction) are predicted with the simulator's exact fault text.
//
// Bound contract (valid for every terminating run, any input state):
//
//   bundles_issued <= cycles <= bundles_issued * max_cycles_per_bundle
//
// where max_cycles_per_bundle = 1 + (Lmax-1) + port_bound + contention
// + (pipeline_stages-1), from a whole-program scan (see docs/ANALYSIS.md
// for the derivation).  tests/test_static_cycles.cpp enforces both
// modes against the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/custom.hpp"
#include "core/program.hpp"
#include "sim/stats.hpp"

namespace cepic::analysis {

struct StaticCycleOptions {
  /// Walk budget: bundles to execute statically before giving up and
  /// falling back to the bound (covers static infinite loops too).
  std::uint64_t max_bundles = 1u << 20;
  /// Data memory size the fault model mirrors; must match the
  /// SimOptions::mem_size of the run being predicted (both default to
  /// 4 MiB). Accesses below kDataBase, past this size, or misaligned
  /// fault exactly like DataMemory::check.
  std::size_t mem_size = std::size_t{1} << 22;
};

struct StaticCycleReport {
  /// The whole run resolved statically to HALT: `stats` is the exact
  /// prediction, field-for-field comparable with the simulator's.
  bool exact = false;
  /// The walk proved the simulator will fault (unsupported op, branch
  /// past end, ...); `reason` carries the predicted fault text.
  bool fault = false;
  /// Why the walk stopped when not exact (unknown guard/branch/target,
  /// budget exhausted, fault).
  std::string reason;

  SimStats stats;  ///< meaningful only when exact
  std::uint64_t walked_bundles = 0;

  std::uint64_t max_cycles_per_bundle = 1;

  /// Per-pc stall attribution accumulated over the static walk.
  struct BundleCost {
    std::uint64_t issues = 0;
    std::uint64_t sb_stall = 0;
    std::uint64_t port_stall = 0;
    std::uint64_t contention = 0;
    std::uint64_t bubbles = 0;
  };
  std::vector<BundleCost> per_pc;

  /// Does an observed run satisfy the stated bound?
  bool within_bound(const SimStats& observed) const {
    return observed.cycles >= observed.bundles_issued &&
           observed.cycles <= observed.bundles_issued * max_cycles_per_bundle;
  }

  std::string to_string() const;
  /// Machine-readable single-object JSON (schemas/lint.schema.json).
  std::string to_json() const;
};

/// Analyze `program` with its embedded configuration (custom-op
/// semantics default to the builtin library, as in the simulator).
StaticCycleReport predict_cycles(const Program& program,
                                 const CustomOpTable& custom = {},
                                 const StaticCycleOptions& options = {});

}  // namespace cepic::analysis
