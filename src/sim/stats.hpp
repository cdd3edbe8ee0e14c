// Cycle-accounting statistics reported by the EPIC simulator — the
// quantities Table 1 and Figs. 3–5 of the paper are built from, plus the
// stall breakdown used by the ablation benches.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cepic {

/// Simulator execution tier (docs/SIM.md "Execution tiers"). All three
/// produce bit-identical statistics, output and faults; they
/// differ only in speed (tests/test_sim_fastpath.cpp proves it
/// differentially).
enum class ExecTier : std::uint8_t {
  Interp,    ///< decode-every-cycle reference path
  Decode,    ///< pre-decoded DecodedBundle fast path (PR 4)
  Threaded,  ///< block-level threaded-code tier (sim/threaded.hpp)
};

/// Short lowercase name (matches the --exec-tier CLI spelling).
const char* to_string(ExecTier tier);

struct SimStats {
  std::uint64_t cycles = 0;          ///< total processor cycles
  std::uint64_t bundles_issued = 0;  ///< MultiOps issued
  std::uint64_t ops_executed = 0;    ///< non-NOP ops entering execute
  std::uint64_t ops_committed = 0;   ///< ops whose guard predicate was true
  std::uint64_t ops_nullified = 0;   ///< ops squashed by a false predicate
  std::uint64_t nops = 0;            ///< NOP padding slots fetched

  std::uint64_t stall_scoreboard = 0;   ///< operand-not-ready stalls
  std::uint64_t stall_reg_ports = 0;    ///< register-port budget stalls (§3.2)
  std::uint64_t stall_mem_contention = 0;  ///< unified-memory fetch steals
  std::uint64_t branch_bubbles = 0;     ///< taken-branch fetch flushes

  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t branches_taken = 0;
  std::uint64_t branches_not_taken = 0;

  /// Widest issue the histogram below can record. The simulator asserts
  /// config.issue_width fits at construction, so a customisation with
  /// wider issue fails loudly instead of silently folding into the top
  /// bucket.
  static constexpr std::size_t kMaxBundleWidth = 8;

  /// Histogram of useful (non-NOP) ops per issued bundle,
  /// index 0..kMaxBundleWidth.
  std::array<std::uint64_t, kMaxBundleWidth + 1> bundle_width_hist{};

  // --- execution metadata (not architecture-visible counters) ---------

  /// Tier that executed the most recent run()/step(). When a timeline
  /// (which also renders the text trace) is attached to a threaded-tier
  /// simulator the run pins to the decode tier and says so here
  /// (timeline_pinned below).
  ExecTier exec_tier = ExecTier::Interp;
  /// exec_tier was requested Threaded but the run executed on the
  /// decode tier because a SimTimeline was attached.
  bool timeline_pinned = false;

  /// Achieved instruction-level parallelism: committed ops per cycle.
  double ilp() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(ops_committed) /
                             static_cast<double>(cycles);
  }

  /// Multi-line human-readable report.
  std::string report() const;

  /// Field-wise equality over the semantic counters (differential
  /// cross-tier tests). The exec_tier/timeline_pinned markers record
  /// which tier ran — the one thing the tiers legitimately disagree on
  /// — so they are deliberately excluded.
  bool operator==(const SimStats& o) const {
    return cycles == o.cycles && bundles_issued == o.bundles_issued &&
           ops_executed == o.ops_executed &&
           ops_committed == o.ops_committed &&
           ops_nullified == o.ops_nullified && nops == o.nops &&
           stall_scoreboard == o.stall_scoreboard &&
           stall_reg_ports == o.stall_reg_ports &&
           stall_mem_contention == o.stall_mem_contention &&
           branch_bubbles == o.branch_bubbles && mem_reads == o.mem_reads &&
           mem_writes == o.mem_writes &&
           branches_taken == o.branches_taken &&
           branches_not_taken == o.branches_not_taken &&
           bundle_width_hist == o.bundle_width_hist;
  }
};

}  // namespace cepic
