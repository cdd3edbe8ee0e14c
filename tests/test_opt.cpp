// Optimiser tests: per-pass unit checks plus the semantics-preservation
// property — every pass combination must leave interpreter-observable
// behaviour (output stream + return value) unchanged on a corpus of
// MiniC programs.
#include <gtest/gtest.h>

#include <cstdlib>

#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "opt/opt.hpp"

namespace cepic {
namespace {

using ir::IrOp;

ir::Module compiled(std::string_view src) {
  return minic::compile_to_ir(src);
}

std::size_t count_insts(const ir::Function& fn) {
  std::size_t n = 0;
  for (const auto& b : fn.blocks) n += b.insts.size();
  return n;
}

std::size_t count_op(const ir::Function& fn, IrOp op) {
  std::size_t n = 0;
  for (const auto& b : fn.blocks) {
    for (const auto& i : b.insts) n += i.op == op ? 1 : 0;
  }
  return n;
}

std::size_t count_guarded(const ir::Function& fn) {
  std::size_t n = 0;
  for (const auto& b : fn.blocks) {
    for (const auto& i : b.insts) n += i.guard != ir::kNoVReg ? 1 : 0;
  }
  return n;
}

TEST(OptConstFold, FoldsConstantExpressions) {
  analysis::AnalysisManager am;
  ir::Module m = compiled("int main() { return (2 + 3) * 4; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_constfold(f, am);
  opt::pass_copy_propagate(f, am);
  opt::pass_constfold(f, am);
  // After folding, no Mul remains.
  EXPECT_EQ(count_op(f, IrOp::Mul), 0u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 20u);
}

TEST(OptConstFold, StrengthReducesMulByPowerOfTwo) {
  analysis::AnalysisManager am;
  ir::Module m = compiled("int f(int x){ return x * 8; }"
                          "int main(){ return f(3); }");
  ir::Function& f = *m.find_function("f");
  opt::pass_constfold(f, am);
  EXPECT_EQ(count_op(f, IrOp::Mul), 0u);
  EXPECT_GE(count_op(f, IrOp::Shl), 1u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 24u);
}

TEST(OptConstFold, AlgebraicIdentities) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int x = 9; return (x + 0) * 1 + (x & -1) + (x ^ 0); }");
  ir::Function& f = *m.find_function("main");
  for (int i = 0; i < 3; ++i) {
    opt::pass_copy_propagate(f, am);
    opt::pass_constfold(f, am);
    opt::pass_dce(f, am);
  }
  EXPECT_EQ(count_op(f, IrOp::Mul), 0u);
  EXPECT_EQ(count_op(f, IrOp::And), 0u);
  EXPECT_EQ(count_op(f, IrOp::Xor), 0u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 27u);
}

TEST(OptConstFold, FoldsConstantBranches) {
  analysis::AnalysisManager am;
  ir::Module m = compiled("int main(){ if (1 < 2) return 7; return 8; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_constfold(f, am);   // folds the compare to 1
  opt::pass_copy_propagate(f, am);
  opt::pass_constfold(f, am);   // folds the condbr
  EXPECT_EQ(count_op(f, IrOp::CondBr), 0u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 7u);
}

TEST(OptCopyProp, EliminatesCopyChains) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int a = 5; int b = a; int c = b; return c + c; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_copy_propagate(f, am);
  opt::pass_constfold(f, am);
  opt::pass_dce(f, am);
  // The adds' operands should be immediates after propagation.
  EXPECT_EQ(ir::Interpreter(m).run().ret, 10u);
  EXPECT_LE(count_insts(f), 3u);
}

TEST(OptCse, ReusesRepeatedComputation) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int a = 6; int b = 7;"
      " return (a * b) + (a * b) + (a * b); }");
  ir::Function& f = *m.find_function("main");
  opt::pass_copy_propagate(f, am);
  opt::pass_cse(f, am);
  EXPECT_EQ(count_op(f, IrOp::Mul), 1u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 126u);
}

TEST(OptCse, LoadCseInvalidatedByStore) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int g[2] = {5, 0};\n"
      "int main(){ int a = g[0]; g[0] = 9; int b = g[0]; return a + b; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_copy_propagate(f, am);
  opt::pass_cse(f, am);
  // Both loads must survive (the store intervenes).
  EXPECT_EQ(count_op(f, IrOp::LoadW), 2u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 14u);
}

TEST(OptCse, GlobalAddrIsCsed) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int g[4];\n"
      "int main(){ g[0] = 1; g[1] = 2; g[2] = 3; return g[0]; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_cse(f, am);
  EXPECT_EQ(count_op(f, IrOp::GlobalAddr), 1u);
}

TEST(OptDce, RemovesDeadComputation) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int unused = 3 * 4 + 5; int x = 2; return x; }");
  ir::Function& f = *m.find_function("main");
  const std::size_t before = count_insts(f);
  opt::pass_dce(f, am);
  EXPECT_LT(count_insts(f), before);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 2u);
}

TEST(OptDce, KeepsSideEffects) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int g;\n"
      "int main(){ g = 5; out(1); return 0; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_dce(f, am);
  EXPECT_EQ(count_op(f, IrOp::StoreW), 1u);
  EXPECT_EQ(count_op(f, IrOp::Out), 1u);
}

TEST(OptDce, LoopCarriedValuesStayLive) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int s = 0;"
      " for (int i = 0; i < 5; i++) s += i; return s; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_dce(f, am);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 10u);
}

TEST(OptSimplifyCfg, MergesStraightLineChains) {
  analysis::AnalysisManager am;
  ir::Module m = compiled("int main(){ int a = 1; { int b = 2; a = b; } return a; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_simplify_cfg(f, am);
  EXPECT_EQ(f.blocks.size(), 1u);
}

TEST(OptSimplifyCfg, RemovesUnreachableAfterConstantBranch) {
  analysis::AnalysisManager am;
  ir::Module m = compiled("int main(){ if (0) { out(9); } return 1; }");
  ir::Function& f = *m.find_function("main");
  opt::pass_constfold(f, am);
  opt::pass_simplify_cfg(f, am);
  EXPECT_EQ(count_op(f, IrOp::Out), 0u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 1u);
}

TEST(OptInline, InlinesLeafCalls) {
  ir::Module m = compiled(
      "int sq(int x) { return x * x; }\n"
      "int main(){ return sq(3) + sq(4); }");
  opt::pass_inline(m, 48);
  const ir::Function& f = *m.find_function("main");
  EXPECT_EQ(count_op(f, IrOp::Call), 0u);
  EXPECT_EQ(ir::Interpreter(m).run("main").ret, 25u);
}

TEST(OptInline, SkipsRecursiveAndLargeCallees) {
  ir::Module m = compiled(
      "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }\n"
      "int main(){ return fact(5); }");
  opt::pass_inline(m, 48);
  const ir::Function& f = *m.find_function("main");
  EXPECT_EQ(count_op(f, IrOp::Call), 1u);  // recursive callee untouched
  EXPECT_EQ(ir::Interpreter(m).run().ret, 120u);
}

TEST(OptInline, InlinedFramesDoNotCollide) {
  ir::Module m = compiled(
      "int pick(int a[], int i) { return a[i]; }\n"
      "int use() { int t[2] = {11, 22}; return t[0]; }\n"
      "int main(){ int u[2] = {33, 44}; return use() + pick(u, 1); }");
  opt::pass_inline(m, 48);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 55u);
}

TEST(OptIfConvert, ConvertsTriangle) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int x = 3; if (x > 2) x = 9; return x; }");
  ir::Function& f = *m.find_function("main");
  const bool changed = opt::pass_if_convert(f, am, 10);
  EXPECT_TRUE(changed);
  EXPECT_GE(count_guarded(f), 1u);
  opt::pass_simplify_cfg(f, am);
  EXPECT_EQ(count_op(f, IrOp::CondBr), 0u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 9u);
}

TEST(OptIfConvert, ConvertsDiamond) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int main(){ int x = 3; int y; if (x > 2) y = 1; else y = 2;"
      " return y; }");
  ir::Function& f = *m.find_function("main");
  EXPECT_TRUE(opt::pass_if_convert(f, am, 10));
  opt::pass_simplify_cfg(f, am);
  EXPECT_EQ(count_op(f, IrOp::CondBr), 0u);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 1u);
}

TEST(OptIfConvert, GuardedStoreSemantics) {
  // Dijkstra's relax step: a store under a condition.
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int d[2] = {100, 5};\n"
      "int main(){ int alt = 7;"
      " if (alt < d[0]) d[0] = alt;"
      " if (alt < d[1]) d[1] = alt;"
      " return d[0] * 100 + d[1]; }");
  for (ir::Function& f : m.functions) {
    opt::pass_if_convert(f, am, 10);
    opt::pass_simplify_cfg(f, am);
  }
  EXPECT_EQ(ir::Interpreter(m).run().ret, 705u);
}

TEST(OptIfConvert, SkipsCallsAndBigArms) {
  analysis::AnalysisManager am;
  ir::Module m = compiled(
      "int g() { return 1; }\n"
      "int main(){ int x = 0; if (x) x = g(); return x; }");
  ir::Function& f = *m.find_function("main");
  EXPECT_FALSE(opt::pass_if_convert(f, am, 10));
}

TEST(OptPipeline, FullPipelinePreservesOutput) {
  const char* src =
      "int tab[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n"
      "int sum(int a[], int n) { int s = 0;"
      "  for (int i = 0; i < n; i++) s += a[i]; return s; }\n"
      "int maxv(int a[], int n) { int m = a[0];"
      "  for (int i = 1; i < n; i++) if (a[i] > m) m = a[i]; return m; }\n"
      "int main() {"
      "  out(sum(tab, 8)); out(maxv(tab, 8));"
      "  int acc = 0;"
      "  for (int i = 0; i < 8; i++) {"
      "    if (tab[i] % 2 == 0) acc += tab[i] * 3; else acc -= tab[i];"
      "  }"
      "  out(acc); return acc; }";
  ir::Module plain = compiled(src);
  ir::Module optimized = compiled(src);
  opt::optimize(optimized);

  const auto r0 = ir::Interpreter(plain).run();
  const auto r1 = ir::Interpreter(optimized).run();
  EXPECT_EQ(r0.output, r1.output);
  EXPECT_EQ(r0.ret, r1.ret);
  // And it should genuinely shrink the program.
  EXPECT_LT(count_insts(*optimized.find_function("main")),
            count_insts(*plain.find_function("main")) +
                count_insts(*plain.find_function("sum")) +
                count_insts(*plain.find_function("maxv")));
}

// ---- property sweep: pass combinations preserve semantics on a corpus ----

struct PassCombo {
  const char* name;
  opt::OptOptions options;
};

// Without this, gtest prints the param as raw bytes, pointer and padding
// included, so the discovered CTest names would change with every build.
void PrintTo(const PassCombo& combo, std::ostream* os) { *os << combo.name; }

class OptProperty : public ::testing::TestWithParam<PassCombo> {};

const char* kCorpus[] = {
    // Branch-heavy with guarded stores.
    "int d[5] = {9, 3, 7, 1, 5};\n"
    "int main(){ int best = 1000; int bi = -1;"
    " for (int i = 0; i < 5; i++) {"
    "   if (d[i] < best) { best = d[i]; bi = i; } }"
    " out(best); out(bi); return best * 10 + bi; }",
    // Nested calls + recursion.
    "int add3(int a, int b, int c) { return a + b + c; }\n"
    "int tri(int n) { if (n <= 0) return 0; return n + tri(n - 1); }\n"
    "int main(){ out(add3(1, 2, 3)); out(tri(10)); return tri(4); }",
    // Bit tricks: rotations, masks, xorshift.
    "int main(){ int s = 0x12345678; int acc = 0;"
    " for (int i = 0; i < 20; i++) {"
    "   s ^= s << 13; s ^= s >>> 17; s ^= s << 5;"
    "   acc ^= (s >>> (i % 13)) + (s << (i % 7)); }"
    " out(acc); return acc & 0xFFFF; }",
    // Local arrays, do-while, ternary.
    "int main(){ int a[6]; int i = 0;"
    " do { a[i] = i % 2 ? -i : i * i; i++; } while (i < 6);"
    " int s = 0; for (int j = 0; j < 6; j++) s += a[j];"
    " out(s); return s; }",
    // Short-circuit + division corner cases.
    "int safe_div(int a, int b) { return b != 0 && a > 0 ? a / b : -1; }\n"
    "int main(){ out(safe_div(10, 3)); out(safe_div(10, 0));"
    " out(safe_div(-5, 2)); return 0; }",
    // min/max/abs builtins and compound assignment soup.
    "int main(){ int x = -42; int y = 17;"
    " x += y; x *= 3; x -= min(x, y); x |= max(1, abs(x) % 13);"
    " out(x); return x; }",
};

TEST_P(OptProperty, SemanticsPreservedOnCorpus) {
  const opt::OptOptions& options = GetParam().options;
  for (const char* src : kCorpus) {
    ir::Module plain = compiled(src);
    ir::Module optimized = compiled(src);
    opt::optimize(optimized, options);
    const auto r0 = ir::Interpreter(plain).run();
    const auto r1 = ir::Interpreter(optimized).run();
    EXPECT_EQ(r0.output, r1.output) << src;
    EXPECT_EQ(r0.ret, r1.ret) << src;
  }
}

opt::OptOptions combo(bool fold, bool cp, bool cse, bool dce, bool cfg,
                      bool inl, bool ifc, bool licm = false) {
  opt::OptOptions o;
  o.licm = licm;
  o.fold = fold;
  o.copy_propagate = cp;
  o.cse = cse;
  o.dce = dce;
  o.simplify_cfg = cfg;
  o.inline_calls = inl;
  o.if_convert = ifc;
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, OptProperty,
    ::testing::Values(
        PassCombo{"all", combo(true, true, true, true, true, true, true)},
        PassCombo{"no_ifconvert",
                  combo(true, true, true, true, true, true, false)},
        PassCombo{"no_inline",
                  combo(true, true, true, true, true, false, true)},
        PassCombo{"fold_only",
                  combo(true, false, false, false, false, false, false)},
        PassCombo{"cse_dce",
                  combo(false, false, true, true, false, false, false)},
        PassCombo{"ifconvert_only",
                  combo(false, false, false, false, true, false, true)},
        PassCombo{"cfg_only",
                  combo(false, false, false, false, true, false, false)},
        PassCombo{"all_plus_licm",
                  combo(true, true, true, true, true, true, true, true)},
        PassCombo{"licm_only",
                  combo(false, false, false, false, true, false, false,
                        true)}),
    [](const ::testing::TestParamInfo<PassCombo>& info) {
      return info.param.name;
    });

// -------------------------------------------- per-pass IR verification

const char* kVerifySrc =
    "int helper(int x) { return x * 3 + 1; }\n"
    "int main() {\n"
    "  int s = 0;\n"
    "  for (int i = 0; i < 20; i++) {\n"
    "    if (i % 2 == 0) s += helper(i); else s -= i;\n"
    "  }\n"
    "  out(s); return s & 0xFF;\n}\n";

TEST(OptVerifyEachPass, AcceptsTheFullPipelineAndChangesNothing) {
  ir::Module plain = compiled(kVerifySrc);
  opt::optimize(plain);

  ir::Module checked = compiled(kVerifySrc);
  opt::OptOptions options;
  options.verify_each_pass = true;
  ASSERT_NO_THROW(opt::optimize(checked, options));
  // A pure check: the optimised IR is byte-identical with it on or off.
  EXPECT_EQ(ir::to_string(checked), ir::to_string(plain));
}

TEST(OptVerifyEachPass, EnvironmentVariableEnablesIt) {
  // CEPIC_VERIFY_IR reaches optimize() without any options plumbing
  // (the debug flow for tools and benches).
  ir::Module m = compiled(kVerifySrc);
  ASSERT_EQ(setenv("CEPIC_VERIFY_IR", "1", 1), 0);
  ASSERT_NO_THROW(opt::optimize(m));
  ASSERT_EQ(unsetenv("CEPIC_VERIFY_IR"), 0);
}

}  // namespace
}  // namespace cepic
