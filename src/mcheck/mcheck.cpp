#include "mcheck/mcheck.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/custom.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::mcheck {

namespace {

constexpr std::string_view kRuleIds[kNumRules] = {
    "mcheck.structure",        "mcheck.field-width",
    "mcheck.reg-bounds",       "mcheck.fu-missing",
    "mcheck.fu-oversubscribed", "mcheck.port-budget",
    "mcheck.latency",          "mcheck.multiop-waw",
    "mcheck.branch-target",    "mcheck.btr-discipline",
};

struct RegKey {
  RegFile file = RegFile::None;
  std::uint32_t reg = 0;
  bool operator<(const RegKey& o) const {
    return file < o.file || (file == o.file && reg < o.reg);
  }
};

/// Architectural read/write sets of one instruction, split by consumer:
/// `port_reads` mirrors backend/schedule.cpp's classify() (guard reads
/// and the guarded-def merge read included, r0/p0 hardwired values
/// excluded); `sb_reads` mirrors the simulator scoreboard (operand and
/// store-value reads only).
struct InstSets {
  std::set<RegKey> port_reads;
  std::set<RegKey> sb_reads;
  std::set<RegKey> writes;
};

InstSets classify(const Instruction& inst) {
  InstSets s;
  const OpInfo& info = inst.info();
  const auto operand_read = [&](RegFile f, std::uint32_t r) {
    if (f == RegFile::None) return;
    if (f == RegFile::Gpr && r == 0) return;   // r0 hardwired zero
    if (f == RegFile::Pred && r == 0) return;  // p0 hardwired true
    s.port_reads.insert({f, r});
    s.sb_reads.insert({f, r});
  };
  if (inst.src1.is_reg()) operand_read(reg_file(info.src1), inst.src1.reg);
  if (inst.src2.is_reg()) operand_read(reg_file(info.src2), inst.src2.reg);
  if (info.dest1_is_source) operand_read(RegFile::Gpr, inst.dest1);
  if (inst.pred != 0) operand_read(RegFile::Pred, inst.pred);
  if (info.writes_dest1() &&
      !(info.dest1 == RegFile::Gpr && inst.dest1 == 0)) {
    s.writes.insert({info.dest1, inst.dest1});
    // A guarded definition merges with the old value: the register file
    // controller charges a read port for it (as the scheduler does).
    if (inst.pred != 0) s.port_reads.insert({info.dest1, inst.dest1});
  }
  if (info.dest2 != RegFile::None && inst.dest2 != 0) {
    s.writes.insert({info.dest2, inst.dest2});
    if (inst.pred != 0) s.port_reads.insert({info.dest2, inst.dest2});
  }
  return s;
}

Rule defect_rule(DefectKind kind) {
  switch (kind) {
    case DefectKind::Shape: return Rule::Structure;
    case DefectKind::RegRange: return Rule::RegBounds;
    case DefectKind::LitWidth:
    case DefectKind::RegCap: return Rule::FieldWidth;
    case DefectKind::Unimplemented: break;
  }
  return Rule::FuMissing;
}

bool is_control(const Instruction& inst) {
  return inst.info().is_branch || inst.op == Op::HALT;
}

class Checker {
 public:
  Checker(const Program& program, const Mdes& mdes,
          const CheckOptions& options)
      : p_(program), mdes_(mdes), opts_(options) {
    rep_.werror = options.werror;
  }

  Report run() {
    if (!check_structure()) return std::move(rep_);
    index_labels();
    collect_prepared_btrs();
    check_bundles();
    return std::move(rep_);
  }

 private:
  void diag(Rule rule, Severity sev, std::uint32_t bundle, int slot,
            std::string message) {
    if (!opts_.rule_enabled(rule)) return;
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.bundle = bundle;
    d.slot = slot;
    auto it = label_at_.upper_bound(bundle);
    if (it != label_at_.begin()) d.label = std::prev(it)->second;
    d.message = std::move(message);
    rep_.diags.push_back(std::move(d));
  }

  bool check_structure() {
    try {
      p_.config.validate();
    } catch (const Error& e) {
      diag(Rule::Structure, Severity::Error, 0, -1,
           cat("invalid processor configuration: ", e.what()));
      return false;
    }
    if (p_.code.size() % p_.config.issue_width != 0) {
      diag(Rule::Structure, Severity::Error, 0, -1,
           cat("code holds ", p_.code.size(), " operations, not a whole "
               "number of ", p_.config.issue_width, "-op MultiOps"));
      return false;
    }
    if (!p_.code.empty() && p_.entry_bundle >= p_.bundle_count()) {
      diag(Rule::Structure, Severity::Error, 0, -1,
           cat("entry bundle ", p_.entry_bundle, " past end of program (",
               p_.bundle_count(), " bundles)"));
    }
    return true;
  }

  void index_labels() {
    for (const auto& [name, addr] : p_.code_symbols) {
      auto [it, inserted] = label_at_.try_emplace(addr, name);
      // Prefer function-style labels over positional L<fn>_<n> aliases.
      if (!inserted && it->second.starts_with("L") && !name.starts_with("L")) {
        it->second = name;
      }
    }
  }

  void collect_prepared_btrs() {
    for (const Instruction& inst : p_.code) {
      if (inst.op == Op::PBR && inst.dest1 < p_.config.num_btrs) {
        prepared_btrs_.insert(inst.dest1);
      }
    }
  }

  // ---- per-instruction checks ----

  void check_op(std::uint32_t b, int slot, const Instruction& inst) {
    const OpInfo& info = inst.info();
    const ProcessorConfig& cfg = p_.config;

    // Encoding validity: the defects core/instruction.hpp defines for
    // the assembler and codec, each filed under its rule.
    for (Defect& d : check_instruction(inst, cfg)) {
      diag(defect_rule(d.kind), Severity::Error, b, slot,
           std::move(d.message));
    }

    // Control flow: PBR targets are bundle addresses and must land on an
    // existing MultiOp boundary.
    if (inst.op == Op::PBR && inst.src1.is_lit()) {
      if (inst.src1.lit < 0 ||
          static_cast<std::uint64_t>(inst.src1.lit) >= p_.bundle_count()) {
        diag(Rule::BranchTarget, Severity::Error, b, slot,
             cat("pbr target ", inst.src1.lit, " is not a MultiOp boundary"
                 " (program has ", p_.bundle_count(), " bundles)"));
      }
    }
    if (info.is_branch && info.src1 == SrcSpec::Btr && inst.src1.is_reg() &&
        inst.src1.reg < cfg.num_btrs &&
        prepared_btrs_.count(inst.src1.reg) == 0) {
      diag(Rule::BtrDiscipline, Severity::Error, b, slot,
           cat("`", info.name, "` consumes b", inst.src1.reg,
               " but no pbr in the program prepares it"));
    }
  }

  // ---- per-bundle and cross-bundle analyses ----

  void check_bundles() {
    const unsigned width = p_.config.issue_width;
    const std::size_t nb = p_.bundle_count();
    const unsigned budget = mdes_.reg_port_budget();
    const bool fwd = mdes_.forwarding();

    // Region boundaries: every labelled bundle starts a scheduler block,
    // where both the forwarding window and the latency state reset.
    std::set<std::uint32_t> region_start;
    region_start.insert(p_.entry_bundle);
    for (const auto& [addr, name] : label_at_) region_start.insert(addr);

    std::set<std::uint32_t> prev_writes;       // GPRs written last cycle
    std::map<RegKey, std::uint64_t> ready;     // region-relative ready cycle
    std::uint64_t cycle = 0;                   // region-relative

    for (std::uint32_t b = 0; b < nb; ++b) {
      if (region_start.count(b) != 0) {
        prev_writes.clear();
        ready.clear();
        cycle = 0;
      }
      const std::span<const Instruction> bundle = p_.bundle(b);

      unsigned fu_used[5] = {0, 0, 0, 0, 0};
      unsigned port_ops = 0;
      std::map<RegKey, int> writer_slot;  // first writing slot per register
      std::set<std::uint32_t> gpr_writes;
      std::vector<std::pair<RegKey, unsigned>> pending;  // writes -> latency
      bool has_control = false;

      for (int slot = 0; slot < static_cast<int>(width); ++slot) {
        const Instruction& inst = bundle[slot];
        if (inst.is_nop()) continue;
        check_op(b, slot, inst);
        has_control |= is_control(inst);

        const FuClass fu = inst.info().fu;
        if (fu != FuClass::None) ++fu_used[static_cast<std::size_t>(fu)];

        const InstSets sets = classify(inst);

        // Worst-case register-port accounting (paper §3.2), mirroring
        // the scheduler: GPR reads not covered by last cycle's
        // forwarding window, plus GPR writes.
        for (const RegKey& r : sets.port_reads) {
          if (r.file != RegFile::Gpr) continue;
          if (fwd && prev_writes.count(r.reg) != 0) continue;
          ++port_ops;
        }
        for (const RegKey& w : sets.writes) {
          if (w.file == RegFile::Gpr) ++port_ops;
        }

        // Within-MultiOp ordering: all reads precede all writes, so a
        // read of a register an earlier slot writes returns the
        // pre-MultiOp value — legal MultiOp semantics, but under the
        // scheduler's dependence claims a RAW use must come >= one
        // cycle later.
        for (const RegKey& r : sets.sb_reads) {
          const auto it = writer_slot.find(r);
          if (it != writer_slot.end()) {
            diag(Rule::Latency, Severity::Warning, b, slot,
                 cat("reads ", reg_prefix(r.file), r.reg, ", written by "
                     "slot ", it->second, " of the same MultiOp: the "
                     "pre-MultiOp value is used"));
          }
        }

        // Def-use latency (scoreboard oracle): the operand must be
        // ready by this bundle's stall-free issue cycle.
        for (const RegKey& r : sets.sb_reads) {
          const auto it = ready.find(r);
          if (it != ready.end() && it->second > cycle) {
            diag(Rule::Latency, Severity::Warning, b, slot,
                 cat("reads ", reg_prefix(r.file), r.reg, " ",
                     it->second - cycle, " cycle(s) before the result is "
                     "ready: the scoreboard must stall issue"));
          }
        }

        for (const RegKey& w : sets.writes) {
          if (!writer_slot.try_emplace(w, slot).second) {
            diag(Rule::MultiOpWaw, Severity::Error, b, slot,
                 cat("MultiOp writes ", reg_prefix(w.file), w.reg,
                     " twice; the architectural result is ambiguous"));
          }
          if (w.file == RegFile::Gpr) gpr_writes.insert(w.reg);
          pending.emplace_back(w, mdes_.latency(inst.op));
        }
      }

      for (unsigned f = 1; f < 5; ++f) {
        const auto fu = static_cast<FuClass>(f);
        if (fu_used[f] > mdes_.units(fu)) {
          diag(Rule::FuOversubscribed, Severity::Error, b, -1,
               cat("MultiOp uses ", fu_used[f], " ", fu_name(fu),
                   " ops; this customisation has ", mdes_.units(fu)));
        }
      }
      if (port_ops > budget) {
        diag(Rule::PortBudget, Severity::Warning, b, -1,
             cat("MultiOp needs ", port_ops, " register-port operations; "
                 "the controller provides ", budget,
                 " per cycle, so issue must stall"));
      }

      if (has_control) {
        // Control leaves the straight-line region: past this point the
        // forwarding window and in-flight latencies are unknown, so
        // reset to the worst case (no credit) / silence (no claims).
        prev_writes.clear();
        ready.clear();
        cycle = 0;
      } else {
        prev_writes = std::move(gpr_writes);
        for (const auto& [key, lat] : pending) ready[key] = cycle + lat;
        ++cycle;
      }
    }
  }

  const Program& p_;
  const Mdes& mdes_;
  CheckOptions opts_;
  Report rep_;
  std::map<std::uint32_t, std::string> label_at_;
  std::set<std::uint32_t> prepared_btrs_;
};

}  // namespace

std::string_view rule_id(Rule rule) {
  return kRuleIds[static_cast<std::size_t>(rule)];
}

std::string_view severity_name(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::string Diagnostic::to_string() const {
  std::string s = cat(severity_name(severity), ": bundle ", bundle);
  if (slot >= 0) s += cat(" slot ", slot);
  if (!label.empty()) s += cat(" (in ", label, ")");
  s += cat(": ", message, " [", rule_id(rule), "]");
  return s;
}

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.severity == s; }));
}

bool Report::has_rule(Rule rule) const {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::string Report::to_text() const {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

std::string Report::to_json() const {
  std::string out = cat("{\"errors\":", count(Severity::Error),
                        ",\"warnings\":", count(Severity::Warning),
                        ",\"werror\":", werror, ",\"diagnostics\":[");
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) out += ',';
    out += cat("{\"rule\":\"", rule_id(d.rule), "\",\"severity\":\"",
               severity_name(d.severity), "\",\"bundle\":", d.bundle,
               ",\"slot\":", d.slot, ",\"label\":\"", json_escape(d.label),
               "\",\"message\":\"", json_escape(d.message), "\"}");
  }
  out += "]}";
  return out;
}

Report check_program(const Program& program, const Mdes& mdes,
                     const CheckOptions& options) {
  return Checker(program, mdes, options).run();
}

Report check_program(const Program& program, const CheckOptions& options) {
  CustomOpTable custom;
  try {
    custom = CustomOpTable::for_names(program.config.custom_ops);
  } catch (const Error& e) {
    Report rep;
    rep.werror = options.werror;
    if (options.rule_enabled(Rule::Structure)) {
      Diagnostic d;
      d.rule = Rule::Structure;
      d.severity = Severity::Error;
      d.message = cat("invalid custom-op binding: ", e.what());
      rep.diags.push_back(std::move(d));
    }
    return rep;
  }
  // Mdes construction requires a valid configuration; report an invalid
  // one as a structure diagnostic rather than letting it throw.
  try {
    program.config.validate();
  } catch (const Error& e) {
    Report rep;
    rep.werror = options.werror;
    if (options.rule_enabled(Rule::Structure)) {
      Diagnostic d;
      d.rule = Rule::Structure;
      d.severity = Severity::Error;
      d.message = cat("invalid processor configuration: ", e.what());
      rep.diags.push_back(std::move(d));
    }
    return rep;
  }
  const Mdes mdes(program.config, &custom);
  return check_program(program, mdes, options);
}

}  // namespace cepic::mcheck
