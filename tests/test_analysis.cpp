// The dataflow framework: engine + the four concrete analyses with
// their stable printable results, the available-copies analysis that
// drives global copy propagation, and the IR lint rules.
#include <gtest/gtest.h>

#include "analysis/analyses.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/intervals.hpp"
#include "analysis/irlint.hpp"
#include "ir/parse.hpp"
#include "ir/verify.hpp"

namespace cepic::analysis {
namespace {

ir::Module parse(std::string_view text) {
  ir::Module m = ir::parse_module(text);
  ir::verify_module(m, /*require_main=*/false);
  return m;
}

// ---------------------------------------------------------------------
// BitSet

TEST(BitSet, SetTestResetAcrossWordBoundaries) {
  BitSet s(130);
  EXPECT_EQ(s.size(), 130u);
  EXPECT_FALSE(s.any());
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(129);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(129));
  EXPECT_FALSE(s.test(65));
  EXPECT_EQ(s.count(), 4u);
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 3u);
}

TEST(BitSet, SetAllRespectsTailMask) {
  BitSet s(70);
  s.set_all();
  EXPECT_EQ(s.count(), 70u);
  BitSet t(70);
  t.set_all();
  EXPECT_TRUE(s == t);
}

TEST(BitSet, IorIandReportChanges) {
  BitSet a(10), b(10);
  b.set(3);
  EXPECT_TRUE(a.ior(b));
  EXPECT_FALSE(a.ior(b));  // already a superset
  BitSet c(10);
  c.set(3);
  c.set(7);
  EXPECT_TRUE(c.iand(a));  // drops bit 7
  EXPECT_FALSE(c.iand(a));
  EXPECT_TRUE(c.test(3));
  EXPECT_FALSE(c.test(7));
}

// ---------------------------------------------------------------------
// CFG

TEST(Cfg, DiamondShape) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b2
.b1:
  %2 = 1
  br .b3
.b2:
  %2 = 2
  br .b3
.b3:
  ret %2
}
)");
  const Cfg cfg = Cfg::build(m.functions[0]);
  EXPECT_EQ(cfg.num_blocks(), 4);
  EXPECT_EQ(cfg.succs[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(cfg.succs[1], (std::vector<int>{3}));
  EXPECT_EQ(cfg.preds[3], (std::vector<int>{1, 2}));
  EXPECT_TRUE(cfg.reachable[3]);
  EXPECT_EQ(cfg.rpo[0], 0);
  EXPECT_EQ(cfg.rpo_index[0], 0);
  EXPECT_EQ(cfg.rpo.size(), 4u);
}

TEST(Cfg, UnreachableBlockExcludedFromRpo) {
  const ir::Module m = parse(R"(
void main() frame=0 {
.b0:
  ret
.b1:
  ret
}
)");
  const Cfg cfg = Cfg::build(m.functions[0]);
  EXPECT_FALSE(cfg.reachable[1]);
  EXPECT_EQ(cfg.rpo.size(), 1u);
  EXPECT_EQ(cfg.rpo_index[1], -1);
}

TEST(Cfg, CondBrWithEqualTargetsDeduplicates) {
  const ir::Module m = parse(R"(
void main(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b1
.b1:
  ret
}
)");
  const Cfg cfg = Cfg::build(m.functions[0]);
  EXPECT_EQ(cfg.succs[0], (std::vector<int>{1}));
}

// ---------------------------------------------------------------------
// Dominators

TEST(Dominators, DiamondGolden) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b2
.b1:
  %2 = 1
  br .b3
.b2:
  %2 = 2
  br .b3
.b3:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const Cfg cfg = Cfg::build(fn);
  const Dominators dom = compute_dominators(fn, cfg);
  EXPECT_EQ(dom.to_string(fn),
            "dominators @main\n"
            "  .b0: idom=- dom={.b0}\n"
            "  .b1: idom=.b0 dom={.b0 .b1}\n"
            "  .b2: idom=.b0 dom={.b0 .b2}\n"
            "  .b3: idom=.b0 dom={.b0 .b3}\n");
  EXPECT_TRUE(dom.dominates(0, 3));
  EXPECT_FALSE(dom.dominates(1, 3));
}

TEST(Dominators, LoopHeaderDominatesBody) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  br .b1
.b1:
  condbr %1 ? .b2 : .b3
.b2:
  br .b1
.b3:
  ret %1
}
)");
  const ir::Function& fn = m.functions[0];
  const Dominators dom = compute_dominators(fn, Cfg::build(fn));
  EXPECT_TRUE(dom.dominates(1, 2));
  EXPECT_TRUE(dom.dominates(1, 3));
  EXPECT_EQ(dom.idom[2], 1);
  EXPECT_EQ(dom.idom[3], 1);
}

// ---------------------------------------------------------------------
// Liveness

TEST(Liveness, DiamondGolden) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b2
.b1:
  %2 = 1
  br .b3
.b2:
  %2 = 2
  br .b3
.b3:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const Liveness lv = compute_liveness(fn);
  EXPECT_EQ(lv.to_string(fn),
            "liveness @main\n"
            "  .b0: in=%1 out=-\n"
            "  .b1: in=- out=%2\n"
            "  .b2: in=- out=%2\n"
            "  .b3: in=%2 out=-\n");
}

TEST(Liveness, GuardedDefDoesNotKill) {
  // The old value of %2 can flow through the guarded mov, so %2 is live
  // into the block; the guard itself counts as a use.
  const ir::Module m = parse(R"(
int main(%1, %2) frame=0 {
.b0:
  [%1] %2 = 7
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const Liveness lv = compute_liveness(fn);
  EXPECT_TRUE(lv.live_in[0].test(1));
  EXPECT_TRUE(lv.live_in[0].test(2));
}

TEST(Liveness, UnguardedDefKills) {
  const ir::Module m = parse(R"(
int main(%2) frame=0 {
.b0:
  %2 = 7
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const Liveness lv = compute_liveness(fn);
  EXPECT_FALSE(lv.live_in[0].test(2));
}

// ---------------------------------------------------------------------
// Reaching definitions

TEST(ReachingDefs, DiamondGolden) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b2
.b1:
  %2 = 1
  br .b3
.b2:
  %2 = 2
  br .b3
.b3:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const ReachingDefs rd = compute_reaching_defs(fn, Cfg::build(fn));
  EXPECT_EQ(rd.to_string(fn),
            "reaching-defs @main\n"
            "  .b0: in={entry:%1 entry:%2}\n"
            "  .b1: in={entry:%1 entry:%2}\n"
            "  .b2: in={entry:%1 entry:%2}\n"
            "  .b3: in={entry:%1 .b1#0:%2 .b2#0:%2}\n");
  // %2 was written on every path into .b3: its entry def cannot reach.
  EXPECT_FALSE(rd.entry_def_reaches(fn, 3, 2));
  // %1 is a parameter: never "uninitialised".
  EXPECT_FALSE(rd.entry_def_reaches(fn, 3, 1));
}

TEST(ReachingDefs, GuardedDefDoesNotKillEntryDef) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  [%1] %2 = 7
  br .b1
.b1:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const ReachingDefs rd = compute_reaching_defs(fn, Cfg::build(fn));
  EXPECT_TRUE(rd.entry_def_reaches(fn, 1, 2));
}

// ---------------------------------------------------------------------
// Available copies

TEST(AvailableCopies, SurvivesOnlyOnAllPaths) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  %2 = %1
  condbr %1 ? .b1 : .b2
.b1:
  %3 = 5
  br .b3
.b2:
  %3 = 5
  %2 = 9
  br .b3
.b3:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const AvailableCopies ac =
      compute_available_copies(fn, Cfg::build(fn));
  EXPECT_EQ(ac.to_string(fn),
            "available-copies @main\n"
            "  .b0: in={}\n"
            "  .b1: in={%2=%1}\n"
            "  .b2: in={%2=%1}\n"
            "  .b3: in={%3=#5}\n");
}

TEST(AvailableCopies, RedefOfSourceKills) {
  // The redef of %1 is a non-copy op so it generates no fact of its
  // own; it must still kill the %2=%1 relation.
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  %2 = %1
  %1 = add %1, 1
  br .b1
.b1:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const AvailableCopies ac =
      compute_available_copies(fn, Cfg::build(fn));
  EXPECT_EQ(ac.avail_in[1].count(), 0u);
}

TEST(AvailableCopies, CopyRedefOfSourceGeneratesNewFact) {
  // When the killing redef is itself a copy, the old fact dies but the
  // new one (%1=#3) is available downstream.
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  %2 = %1
  %1 = 3
  br .b1
.b1:
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const AvailableCopies ac =
      compute_available_copies(fn, Cfg::build(fn));
  EXPECT_EQ(ac.to_string(fn),
            "available-copies @main\n"
            "  .b0: in={}\n"
            "  .b1: in={%1=#3}\n");
}

TEST(AvailableCopies, EveryRedefInABlockKillsTheCopiesMadeSince) {
  // Only a block's first def of a vreg kills all of the vreg's facts;
  // each later def must still kill the facts generated in between, on
  // the destination side (%3) and on the source side (%2).
  const ir::Module m = parse(R"(
int main(%1, %2) frame=0 {
.b0:
  %3 = add %1, 1
  %3 = %1
  %3 = add %3, 1
  %4 = %2
  %2 = add %2, 1
  %4 = %2
  %2 = add %2, 2
  %5 = %1
  br .b1
.b1:
  ret %3
}
)");
  const ir::Function& fn = m.functions[0];
  const AvailableCopies ac =
      compute_available_copies(fn, Cfg::build(fn));
  EXPECT_EQ(ac.to_string(fn),
            "available-copies @main\n"
            "  .b0: in={}\n"
            "  .b1: in={%5=%1}\n");
}

// ---------------------------------------------------------------------
// Intervals

TEST(Intervals, ConstantFoldingAndAlwaysTrueBranch) {
  const ir::Module m = parse(R"(
int main() frame=0 {
.b0:
  %1 = 5
  %2 = add %1, 2
  condbr %2 ? .b1 : .b2
.b1:
  ret 1
.b2:
  ret 0
}
)");
  const ir::Function& fn = m.functions[0];
  const Cfg cfg = Cfg::build(fn);
  const IntervalAnalysis ia = compute_intervals(m, fn, cfg);
  ASSERT_EQ(ia.branch_facts.size(), 1u);
  EXPECT_EQ(ia.branch_facts[0].block, 0);
  EXPECT_TRUE(ia.branch_facts[0].then_taken);
  EXPECT_TRUE(ia.executable[1]);
  EXPECT_FALSE(ia.executable[2]);
  // %2 == 7 on entry to .b1.
  EXPECT_EQ(ia.in[1][2], AbsVal::constant(7));
}

TEST(Intervals, NonParamVregsStartAtZero) {
  // The interpreter zero-initialises every non-param vreg; the analysis
  // models exactly that, so reading an unwritten vreg proves 0.
  const ir::Module m = parse(R"(
int main() frame=0 {
.b0:
  %2 = add %1, 3
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const IntervalAnalysis ia = compute_intervals(m, fn, Cfg::build(fn));
  EXPECT_EQ(ia.out[0][2], AbsVal::constant(3));
}

TEST(Intervals, GuardFactAndJoinOnUnknownGuard) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  %2 = 0
  [%2] %3 = 9
  [%1] %4 = 9
  ret %3
}
)");
  const ir::Function& fn = m.functions[0];
  const IntervalAnalysis ia = compute_intervals(m, fn, Cfg::build(fn));
  // Guard %2 is provably 0: the def of %3 never commits.
  ASSERT_FALSE(ia.guard_facts.empty());
  bool saw_static_guard = false;
  for (const auto& f : ia.guard_facts) {
    if (f.block == 0 && f.inst == 1) {
      EXPECT_FALSE(f.commits);
      saw_static_guard = true;
    }
    // The guard on %4 (param %1) is unknown: no fact may be recorded.
    EXPECT_FALSE(f.block == 0 && f.inst == 2);
  }
  EXPECT_TRUE(saw_static_guard);
  EXPECT_EQ(ia.out[0][3], AbsVal::constant(0));
  // %4 is 0 (not committed) or 9 (committed): the join must cover both.
  const Interval v4 = ia.concretize(ia.out[0][4]);
  EXPECT_TRUE(v4.contains(0));
  EXPECT_TRUE(v4.contains(9));
}

TEST(Intervals, BranchRefinementNarrowsOperand) {
  const ir::Module m = parse(R"(
int main(%1) frame=0 {
.b0:
  %2 = cmp.lt %1, 10
  condbr %2 ? .b1 : .b2
.b1:
  ret %1
.b2:
  ret 0
}
)");
  const ir::Function& fn = m.functions[0];
  const IntervalAnalysis ia = compute_intervals(m, fn, Cfg::build(fn));
  // On the then edge %1 < 10; on the else edge %1 >= 10.
  EXPECT_LE(ia.concretize(ia.in[1][1]).hi, 9);
  EXPECT_GE(ia.concretize(ia.in[2][1]).lo, 10);
}

TEST(Intervals, DefiniteOutOfBoundsGlobalAccess) {
  const ir::Module m = parse(R"(
global @g[2]
int main() frame=0 {
.b0:
  %1 = gaddr @g
  %2 = load.w [%1 + 8]
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const IntervalAnalysis ia = compute_intervals(m, fn, Cfg::build(fn));
  ASSERT_EQ(ia.oob.size(), 1u);
  EXPECT_EQ(ia.oob[0].block, 0);
  EXPECT_EQ(ia.oob[0].inst, 1);
  EXPECT_EQ(ia.oob[0].global, 0);
  EXPECT_EQ(ia.oob[0].size, 4u);
  EXPECT_EQ(ia.oob[0].limit, 8u);
}

TEST(Intervals, InBoundsGlobalAccessIsClean) {
  const ir::Module m = parse(R"(
global @g[2]
int main() frame=0 {
.b0:
  %1 = gaddr @g
  %2 = load.w [%1 + 4]
  ret %2
}
)");
  const ir::Function& fn = m.functions[0];
  const IntervalAnalysis ia = compute_intervals(m, fn, Cfg::build(fn));
  EXPECT_TRUE(ia.oob.empty());
}

// ---------------------------------------------------------------------
// Lints

LintReport lint(std::string_view text, LintOptions options = {}) {
  return lint_module(parse(text), options);
}

TEST(Lint, UseBeforeDef) {
  const LintReport r = lint(R"(
int main() frame=0 {
.b0:
  %2 = add %1, 1
  ret %2
}
)",
                            LintOptions::only({LintRule::UseBeforeDef}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].to_string(),
            "warning: @main .b0 inst 0: %1 may be read before it is "
            "assigned [ir.use-before-def]");
}

TEST(Lint, NoUseBeforeDefWhenDefinedOnAllPaths) {
  const LintReport r = lint(R"(
int main(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b2
.b1:
  %2 = 1
  br .b3
.b2:
  %2 = 2
  br .b3
.b3:
  ret %2
}
)",
                            LintOptions::only({LintRule::UseBeforeDef}));
  EXPECT_TRUE(r.diags.empty());
}

TEST(Lint, GuardedDefIsNotDefinite) {
  const LintReport r = lint(R"(
int main(%1) frame=0 {
.b0:
  [%1] %2 = 7
  ret %2
}
)",
                            LintOptions::only({LintRule::UseBeforeDef}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].inst, 1);
}

TEST(Lint, DeadStore) {
  const LintReport r = lint(R"(
void main() frame=0 {
.b0:
  %1 = 5
  ret
}
)",
                            LintOptions::only({LintRule::DeadStore}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].to_string(),
            "warning: @main .b0 inst 0: result %1 is never used "
            "[ir.dead-store]");
}

TEST(Lint, OverwrittenStoreIsDead) {
  const LintReport r = lint(R"(
int main() frame=0 {
.b0:
  %1 = 5
  %1 = 6
  ret %1
}
)",
                            LintOptions::only({LintRule::DeadStore}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].inst, 0);
}

TEST(Lint, UnreachableGraphAndSemantics) {
  const LintReport r = lint(R"(
int main() frame=0 {
.b0:
  %1 = 5
  condbr %1 ? .b1 : .b2
.b1:
  ret 1
.b2:
  ret 0
.b3:
  ret 2
}
)",
                            LintOptions::only({LintRule::Unreachable}));
  ASSERT_EQ(r.diags.size(), 2u);
  EXPECT_EQ(r.diags[0].block, 2);
  EXPECT_EQ(r.diags[0].message,
            "block can never execute: branch conditions exclude it");
  EXPECT_EQ(r.diags[1].block, 3);
  EXPECT_EQ(r.diags[1].message, "block has no path from entry");
}

TEST(Lint, GuardFalse) {
  const LintReport r = lint(R"(
int main() frame=0 {
.b0:
  %1 = 0
  [%1] %2 = 9
  ret %2
}
)",
                            LintOptions::only({LintRule::GuardFalse}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].to_string(),
            "warning: @main .b0 inst 1: guard %1 is never satisfied: "
            "instruction cannot commit [ir.guard-false]");
}

TEST(Lint, NegatedGuardTrueIsFalseFact) {
  const LintReport r = lint(R"(
int main() frame=0 {
.b0:
  %1 = 1
  [!%1] %2 = 9
  ret %2
}
)",
                            LintOptions::only({LintRule::GuardFalse}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].message,
            "guard %1 (negated) is never satisfied: instruction cannot "
            "commit");
}

TEST(Lint, ConstBranch) {
  const LintReport r = lint(R"(
int main() frame=0 {
.b0:
  %1 = 5
  condbr %1 ? .b1 : .b2
.b1:
  ret 1
.b2:
  ret 0
}
)",
                            LintOptions::only({LintRule::ConstBranch}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].message,
            "condition is always true: branch always goes to .b1");
}

TEST(Lint, GlobalOobIsError) {
  const LintReport r = lint(R"(
global @g[2]
int main() frame=0 {
.b0:
  %1 = gaddr @g
  %2 = load.w [%1 + 8]
  ret %2
}
)",
                            LintOptions::only({LintRule::GlobalOob}));
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].severity, LintSeverity::Error);
  EXPECT_EQ(r.diags[0].message,
            "4-byte access at @g + byte offset 8 is outside the global "
            "(8 bytes)");
  EXPECT_EQ(r.error_count(), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(Lint, WerrorPromotesWarnings) {
  LintOptions o = LintOptions::only({LintRule::DeadStore});
  o.werror = true;
  const LintReport r = lint(R"(
void main() frame=0 {
.b0:
  %1 = 5
  ret
}
)",
                            o);
  EXPECT_EQ(r.error_count(), 1u);
  EXPECT_EQ(r.warning_count(), 0u);
  EXPECT_FALSE(r.clean());
}

TEST(Lint, JsonReportShape) {
  const LintReport r = lint(R"(
void main() frame=0 {
.b0:
  %1 = 5
  ret
}
)",
                            LintOptions::only({LintRule::DeadStore}));
  EXPECT_EQ(r.to_json(),
            "{\"errors\":0,\"warnings\":1,\"werror\":false,"
            "\"diagnostics\":[{\"rule\":\"ir.dead-store\","
            "\"severity\":\"warning\",\"function\":\"main\",\"block\":0,"
            "\"inst\":0,\"message\":\"result %1 is never used\"}]}");
}

TEST(Lint, CleanModuleEmptyReport) {
  const LintReport r = lint(R"(
int main(%1) frame=0 {
.b0:
  %2 = add %1, 1
  ret %2
}
)");
  EXPECT_TRUE(r.diags.empty());
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.to_text(), "");
}

TEST(Lint, DiagnosticsSortedByLocation) {
  const LintReport r = lint(R"(
void main() frame=0 {
.b0:
  %1 = 5
  %2 = 6
  ret
}
)",
                            LintOptions::only({LintRule::DeadStore}));
  ASSERT_EQ(r.diags.size(), 2u);
  EXPECT_LT(r.diags[0].inst, r.diags[1].inst);
}

}  // namespace
}  // namespace cepic::analysis
