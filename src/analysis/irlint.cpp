#include "analysis/irlint.hpp"

#include <algorithm>

#include "analysis/analyses.hpp"
#include "analysis/intervals.hpp"
#include "support/text.hpp"

namespace cepic::analysis {

using ir::IrInst;
using ir::VReg;

namespace {

constexpr std::string_view kRuleIds[kNumLintRules] = {
    "ir.use-before-def", "ir.dead-store",    "ir.unreachable",
    "ir.guard-false",    "ir.const-branch",  "ir.global-oob",
};

class FunctionLinter {
 public:
  FunctionLinter(const ir::Module& module, const ir::Function& fn,
                 const LintOptions& options, std::vector<LintDiagnostic>& out)
      : module_(module),
        fn_(fn),
        options_(options),
        out_(out),
        first_(out.size()),
        cfg_(Cfg::build(fn)) {}

  void run() {
    const IntervalAnalysis ia = compute_intervals(module_, fn_, cfg_);

    if (options_.rule_enabled(LintRule::Unreachable)) {
      for (int b = 0; b < cfg_.num_blocks(); ++b) {
        if (b == 0 || ia.executable[b]) continue;
        diag(LintRule::Unreachable, LintSeverity::Warning, b, -1,
             cfg_.reachable[b]
                 ? "block can never execute: branch conditions exclude it"
                 : "block has no path from entry");
      }
    }

    if (options_.rule_enabled(LintRule::UseBeforeDef)) {
      lint_use_before_def();
    }
    if (options_.rule_enabled(LintRule::DeadStore)) lint_dead_stores();

    if (options_.rule_enabled(LintRule::GuardFalse)) {
      for (const auto& f : ia.guard_facts) {
        if (f.commits) continue;
        const IrInst& inst = fn_.blocks[f.block].insts[f.inst];
        diag(LintRule::GuardFalse, LintSeverity::Warning, f.block, f.inst,
             cat("guard %", inst.guard, inst.guard_negate ? " (negated)" : "",
                 " is never satisfied: instruction cannot commit"));
      }
    }

    if (options_.rule_enabled(LintRule::ConstBranch)) {
      for (const auto& f : ia.branch_facts) {
        const IrInst& term = fn_.blocks[f.block].insts.back();
        diag(LintRule::ConstBranch, LintSeverity::Warning, f.block,
             static_cast<int>(fn_.blocks[f.block].insts.size()) - 1,
             cat("condition is always ", f.then_taken ? "true" : "false",
                 ": branch always goes to .b",
                 f.then_taken ? term.block_then : term.block_else));
      }
    }

    if (options_.rule_enabled(LintRule::GlobalOob)) {
      for (const auto& f : ia.oob) {
        const ir::Global& g = module_.globals[f.global];
        std::string range = f.off_lo == f.off_hi
                                ? cat("byte offset ", f.off_lo)
                                : cat("byte offsets [", f.off_lo, ",",
                                      f.off_hi, "]");
        diag(LintRule::GlobalOob, LintSeverity::Error, f.block, f.inst,
             cat(f.size, "-byte access at @", g.name, " + ", range,
                 " is outside the global (", f.limit, " bytes)"));
      }
    }

    // Deterministic order regardless of which analysis found what.
    std::stable_sort(out_.begin() + first_, out_.end(),
                     [](const LintDiagnostic& a, const LintDiagnostic& b) {
                       if (a.block != b.block) return a.block < b.block;
                       if (a.inst != b.inst) return a.inst < b.inst;
                       return static_cast<unsigned>(a.rule) <
                              static_cast<unsigned>(b.rule);
                     });
  }

 private:
  void diag(LintRule rule, LintSeverity sev, int block, int inst,
            std::string message) {
    out_.push_back({rule, sev, fn_.name, block, inst, std::move(message)});
  }

  void lint_use_before_def() {
    const ReachingDefs rd = compute_reaching_defs(fn_, cfg_);
    for (int b = 0; b < cfg_.num_blocks(); ++b) {
      if (!cfg_.reachable[b]) continue;
      // Vregs definitely assigned earlier in this block.
      std::vector<bool> defined(fn_.next_vreg, false);
      const auto& insts = fn_.blocks[b].insts;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const IrInst& inst = insts[i];
        const auto check_use = [&](VReg v) {
          if (v == ir::kNoVReg || defined[v]) return;
          if (!rd.entry_def_reaches(fn_, b, v)) return;
          diag(LintRule::UseBeforeDef, LintSeverity::Warning, b,
               static_cast<int>(i),
               cat("%", v, " may be read before it is assigned"));
          defined[v] = true;  // report each vreg once per block
        };
        for_each_use(inst, [&](const ir::Value& v) {
          if (v.is_reg()) check_use(v.reg);
        });
        if (inst.guard != ir::kNoVReg) check_use(inst.guard);
        const VReg d = def_of(inst);
        if (d != ir::kNoVReg && inst.guard == ir::kNoVReg) defined[d] = true;
      }
    }
  }

  void lint_dead_stores() {
    const Liveness lv = compute_liveness(fn_, cfg_);
    for (int b = 0; b < cfg_.num_blocks(); ++b) {
      if (!cfg_.reachable[b]) continue;
      BitSet live = lv.live_out[b];
      const auto& insts = fn_.blocks[b].insts;
      for (std::size_t i = insts.size(); i-- > 0;) {
        const IrInst& inst = insts[i];
        const VReg d = def_of(inst);
        if (d != ir::kNoVReg && !live.test(d) &&
            !ir::has_side_effects(inst)) {
          diag(LintRule::DeadStore, LintSeverity::Warning, b,
               static_cast<int>(i),
               cat("result %", d, " is never used"));
        }
        if (d != ir::kNoVReg && inst.guard == ir::kNoVReg) live.reset(d);
        for_each_use(inst, [&](const ir::Value& v) {
          if (v.is_reg()) live.set(v.reg);
        });
        if (inst.guard != ir::kNoVReg) live.set(inst.guard);
      }
    }
  }

  const ir::Module& module_;
  const ir::Function& fn_;
  const LintOptions& options_;
  std::vector<LintDiagnostic>& out_;
  std::size_t first_ = 0;
  Cfg cfg_;
};

}  // namespace

std::string_view lint_rule_id(LintRule rule) {
  return kRuleIds[static_cast<unsigned>(rule)];
}

std::string_view lint_severity_name(LintSeverity s) {
  return s == LintSeverity::Error ? "error" : "warning";
}

std::string LintDiagnostic::to_string() const {
  std::string s = cat(lint_severity_name(severity), ": @", function, " .b",
                      block);
  if (inst >= 0) s += cat(" inst ", inst);
  s += cat(": ", message, " [", lint_rule_id(rule), "]");
  return s;
}

std::size_t LintReport::count(LintSeverity s) const {
  std::size_t n = 0;
  for (const auto& d : diags) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool LintReport::has_rule(LintRule rule) const {
  return std::any_of(diags.begin(), diags.end(),
                     [rule](const LintDiagnostic& d) { return d.rule == rule; });
}

std::string LintReport::to_text() const {
  std::string out;
  for (const auto& d : diags) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

std::string LintReport::to_json() const {
  std::string out = cat("{\"errors\":", count(LintSeverity::Error),
                        ",\"warnings\":", count(LintSeverity::Warning),
                        ",\"werror\":", werror, ",\"diagnostics\":[");
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const LintDiagnostic& d = diags[i];
    if (i != 0) out += ',';
    out += cat("{\"rule\":\"", lint_rule_id(d.rule), "\",\"severity\":\"",
               lint_severity_name(d.severity), "\",\"function\":\"",
               json_escape(d.function), "\",\"block\":", d.block,
               ",\"inst\":", d.inst, ",\"message\":\"",
               json_escape(d.message), "\"}");
  }
  out += "]}";
  return out;
}

LintReport lint_module(const ir::Module& module, const LintOptions& options) {
  LintReport report;
  report.werror = options.werror;
  for (const ir::Function& fn : module.functions) {
    FunctionLinter linter(module, fn, options, report.diags);
    linter.run();
  }
  return report;
}

}  // namespace cepic::analysis
