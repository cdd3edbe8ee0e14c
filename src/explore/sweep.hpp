// SweepSpec: the set of ProcessorConfig points a design-space
// exploration visits — either an explicit list or a cartesian grid
// described by a compact grammar (the `--grid` flag of cepic-explore):
//
//   alus=1..4,width=1..4,ports=4,8
//
// Dimensions are comma-separated `key=values` clauses; a comma-separated
// token without `=` extends the previous dimension's value list (so
// `ports=4,8` is one dimension with two values). Values are single
// integers, `lo..hi` inclusive ranges, or lists mixing both. Boolean
// parameters take 0/1. Points are generated in row-major order with the
// *last* dimension varying fastest, which makes the output ordering a
// pure function of the grammar — independent of thread count.
//
// Recognised keys (long config-file names are accepted too):
//   alus        num_alus            gprs      num_gprs
//   preds       num_preds           btrs      num_btrs
//   width|issue issue_width         datapath  datapath_width
//   ports       reg_port_budget     maxregs   max_regs_per_instr
//   latency     load_latency        stages    pipeline_stages
//   forwarding  (bool)              contention unified_memory_contention
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace cepic::explore {

struct SweepSpec {
  std::vector<ProcessorConfig> points;

  void add(const ProcessorConfig& cfg) { points.push_back(cfg); }

  /// Expand a grid grammar over `base` (every parameter not named in the
  /// grammar keeps its base value). Throws ConfigError on a malformed
  /// grammar, an unknown key, a value that does not fit 32 bits or a
  /// grid of more than 2^20 points. The expansion itself never validates —
  /// call filter_invalid() to drop out-of-range combinations.
  static SweepSpec from_grid(std::string_view grammar,
                             const ProcessorConfig& base = {});

  /// Drop every point whose ProcessorConfig::validate() throws. Returns
  /// the number of points removed. Order of survivors is preserved.
  std::size_t filter_invalid();

  std::size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }
};

}  // namespace cepic::explore
