#include "sim/timeline.hpp"

#include "core/program.hpp"
#include "obs/obs.hpp"
#include "support/text.hpp"

namespace cepic {

namespace {

enum SliceKind : std::uint8_t {
  kIssue = 0,
  kStallScoreboard,
  kStallRegPort,
  kStallMemContention,
  kBranchBubble,
  kFuOp,
  kFuNullified,
};

const char* stall_name(std::uint8_t kind) {
  switch (kind) {
    case kStallScoreboard: return "scoreboard";
    case kStallRegPort: return "reg-port";
    case kStallMemContention: return "mem-contention";
    case kBranchBubble: return "branch-bubble";
    default: return "?";
  }
}

}  // namespace

SimTimeline::SimTimeline(const ProcessorConfig& config,
                         std::uint64_t max_bundles)
    : config_(config), max_bundles_(max_bundles) {
  track_names_.push_back("issue");
  track_names_.push_back("stall");
  for (unsigned i = 0; i < config_.num_alus; ++i) {
    track_names_.push_back(cat("ALU", i));
  }
  track_names_.push_back("LSU");
  track_names_.push_back("CMPU");
  track_names_.push_back("BRU");
}

unsigned SimTimeline::fu_track(FuClass fu, unsigned& alu_rr) const {
  const unsigned alu_base = 2;
  switch (fu) {
    case FuClass::Alu: return alu_base + (alu_rr++ % config_.num_alus);
    case FuClass::Lsu: return alu_base + config_.num_alus;
    case FuClass::Cmpu: return alu_base + config_.num_alus + 1;
    case FuClass::Bru:
    case FuClass::None: return alu_base + config_.num_alus + 2;
  }
  return alu_base + config_.num_alus + 2;
}

void SimTimeline::record(const BundleEvent& bundle,
                         const std::vector<OpEvent>& ops) {
  totals_.cycles = bundle.end_cycle;
  ++totals_.bundles_issued;
  totals_.stall_scoreboard += bundle.sb_stall;
  totals_.stall_reg_ports += bundle.port_stall;
  if (bundle.mem_contention) ++totals_.stall_mem_contention;
  totals_.branch_bubbles += bundle.branch_bubbles;
  totals_.ops_executed += ops.size();
  for (const OpEvent& op : ops) {
    if (op.nullified) {
      ++totals_.ops_nullified;
    } else {
      ++totals_.ops_committed;
    }
  }

  if (max_bundles_ != 0 && totals_.bundles_issued > max_bundles_) {
    truncated_ = true;
    return;
  }

  const auto add = [&](std::uint8_t track, std::uint8_t kind,
                       std::uint64_t ts, std::uint64_t dur,
                       std::string_view op_name = {}) {
    Slice s;
    s.track = track;
    s.kind = kind;
    s.pc = bundle.pc;
    s.ts = ts;
    s.dur = dur;
    s.op_name = op_name;
    s.useful_ops = bundle.useful_ops;
    slices_.push_back(s);
  };

  // Stall attribution: the gap between fetch and issue is scoreboard
  // then reg-port stall; contention and bubbles trail the execute cycle.
  if (bundle.sb_stall != 0) {
    add(1, kStallScoreboard, bundle.fetch, bundle.sb_stall);
  }
  if (bundle.port_stall != 0) {
    add(1, kStallRegPort, bundle.fetch + bundle.sb_stall, bundle.port_stall);
  }
  add(0, kIssue, bundle.issue, 1);
  if (bundle.mem_contention) {
    add(1, kStallMemContention, bundle.issue + 1, 1);
  }
  if (bundle.branch_bubbles != 0) {
    add(1, kBranchBubble,
        bundle.issue + 1 + (bundle.mem_contention ? 1 : 0),
        bundle.branch_bubbles);
  }

  unsigned alu_rr = 0;
  for (const OpEvent& op : ops) {
    const unsigned track = fu_track(op.fu, alu_rr);
    if (op.nullified) {
      add(static_cast<std::uint8_t>(track), kFuNullified, bundle.issue, 1,
          op.name);
    } else {
      add(static_cast<std::uint8_t>(track), kFuOp, bundle.issue,
          op.latency == 0 ? 1 : op.latency, op.name);
    }
  }
}

std::string SimTimeline::truncation_note() const {
  return cat("timeline truncated at ", max_bundles_, " bundles");
}

std::string SimTimeline::to_text(const Program& program) const {
  std::string s;
  for (const Slice& slice : slices_) {
    if (slice.kind != kIssue) continue;
    std::string ops;
    for (const Instruction& inst : program.bundle(slice.pc)) {
      if (inst.is_nop()) continue;
      if (!ops.empty()) ops += " || ";
      ops += to_string(inst);
    }
    s += cat("cycle ", pad_left(cat(slice.ts), 6), "  bundle ",
             pad_left(cat(slice.pc), 5), "  ", ops.empty() ? "nop" : ops,
             "\n");
  }
  if (truncated_) s += cat("[", truncation_note(), "]\n");
  return s;
}

std::string SimTimeline::to_chrome_json() const {
  std::vector<obs::TraceEvent> events;
  events.reserve(slices_.size() + track_names_.size() + 2);

  // Process + track naming metadata so Perfetto labels every unit.
  {
    obs::TraceEvent proc;
    proc.ph = 'M';
    proc.name = "process_name";
    proc.tid = 0;
    proc.args.push_back({"name", cat("EPIC core ", config_.summary()), false});
    events.push_back(std::move(proc));
  }
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    obs::TraceEvent meta;
    meta.ph = 'M';
    meta.name = "thread_name";
    meta.tid = static_cast<int>(i) + 1;
    meta.args.push_back({"name", track_names_[i], false});
    events.push_back(std::move(meta));
    obs::TraceEvent order;
    order.ph = 'M';
    order.name = "thread_sort_index";
    order.tid = static_cast<int>(i) + 1;
    order.args.push_back({"sort_index", cat(i), true});
    events.push_back(std::move(order));
  }

  for (const Slice& s : slices_) {
    obs::TraceEvent e;
    e.ph = 'X';
    e.tid = s.track + 1;
    e.ts = static_cast<double>(s.ts);
    e.dur = static_cast<double>(s.dur);
    switch (s.kind) {
      case kIssue:
        e.name = cat("b", s.pc);
        e.cat = "issue";
        e.args.push_back({"pc", cat(s.pc), true});
        e.args.push_back({"useful_ops", cat(s.useful_ops), true});
        break;
      case kFuOp:
        e.name = std::string(s.op_name);
        e.cat = "fu";
        e.args.push_back({"pc", cat(s.pc), true});
        break;
      case kFuNullified:
        e.name = std::string(s.op_name);
        e.cat = "nullified";
        e.args.push_back({"pc", cat(s.pc), true});
        break;
      default:
        e.name = stall_name(s.kind);
        e.cat = "stall";
        e.args.push_back({"pc", cat(s.pc), true});
        break;
    }
    events.push_back(std::move(e));
  }

  if (truncated_) {
    obs::TraceEvent marker;
    marker.ph = 'I';
    marker.name = truncation_note();
    marker.cat = "meta";
    marker.tid = 1;
    marker.ts = static_cast<double>(totals_.cycles);
    events.push_back(std::move(marker));
  }

  std::vector<obs::EventArg> other;
  other.push_back({"time_unit", "cycles", false});
  other.push_back({"config", config_.summary(), false});
  other.push_back({"truncated", truncated_ ? "true" : "false", true});
  other.push_back({"cycles", cat(totals_.cycles), true});
  other.push_back({"bundles_issued", cat(totals_.bundles_issued), true});
  other.push_back({"stall_scoreboard", cat(totals_.stall_scoreboard), true});
  other.push_back({"stall_reg_ports", cat(totals_.stall_reg_ports), true});
  other.push_back(
      {"stall_mem_contention", cat(totals_.stall_mem_contention), true});
  other.push_back({"branch_bubbles", cat(totals_.branch_bubbles), true});
  other.push_back({"ops_executed", cat(totals_.ops_executed), true});
  other.push_back({"ops_committed", cat(totals_.ops_committed), true});
  other.push_back({"ops_nullified", cat(totals_.ops_nullified), true});
  return obs::chrome_trace_json(events, other);
}

}  // namespace cepic
