#include "sim/stats.hpp"

#include "support/text.hpp"

namespace cepic {

const char* to_string(ExecTier tier) {
  switch (tier) {
    case ExecTier::Interp: return "interp";
    case ExecTier::Decode: return "decode";
    case ExecTier::Threaded: return "threaded";
  }
  return "?";
}

std::string SimStats::report() const {
  std::string s;
  s += cat("exec tier:          ", to_string(exec_tier),
           timeline_pinned ? " (pinned from threaded: timeline attached)"
                           : "",
           "\n");
  s += cat("cycles:             ", cycles, "\n");
  s += cat("bundles issued:     ", bundles_issued, "\n");
  s += cat("ops executed:       ", ops_executed, "\n");
  s += cat("ops committed:      ", ops_committed, "\n");
  s += cat("ops nullified:      ", ops_nullified, "\n");
  s += cat("nop slots:          ", nops, "\n");
  s += cat("ILP (ops/cycle):    ", fixed(ilp(), 3), "\n");
  s += cat("stall: scoreboard   ", stall_scoreboard, "\n");
  s += cat("stall: reg ports    ", stall_reg_ports, "\n");
  s += cat("stall: mem contention ", stall_mem_contention, "\n");
  s += cat("branch bubbles:     ", branch_bubbles, "\n");
  s += cat("branches taken:     ", branches_taken, " / not taken: ",
           branches_not_taken, "\n");
  s += cat("memory reads/writes: ", mem_reads, " / ", mem_writes, "\n");
  s += "bundle width histogram:";
  for (std::size_t i = 0; i < bundle_width_hist.size(); ++i) {
    if (bundle_width_hist[i] != 0) {
      s += cat(" [", i, "]=", bundle_width_hist[i]);
    }
  }
  s += "\n";
  return s;
}

}  // namespace cepic
