// Loop-invariant code motion tests: hoisting behaviour, the non-SSA
// safety conditions, and semantics preservation with the pass enabled.
#include <gtest/gtest.h>

#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "ir/verify.hpp"
#include "opt/opt.hpp"

namespace cepic {
namespace {

using ir::IrOp;

std::size_t count_in_block(const ir::Function& fn, int block, IrOp op) {
  std::size_t n = 0;
  for (const auto& inst : fn.blocks[block].insts) n += inst.op == op ? 1 : 0;
  return n;
}

std::size_t count_op(const ir::Function& fn, IrOp op) {
  std::size_t n = 0;
  for (const auto& b : fn.blocks) {
    for (const auto& i : b.insts) n += i.op == op ? 1 : 0;
  }
  return n;
}

/// Find the single-block loop body (the block ending in a backwards Br).
int body_block(const ir::Function& fn) {
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto& t = fn.blocks[b].terminator();
    if (t.op == IrOp::Br && t.block_then < static_cast<int>(b)) {
      return static_cast<int>(b);
    }
  }
  return -1;
}

ir::Module prepared(const char* src) {
  ir::Module m = minic::compile_to_ir(src);
  // Normalise with the standard pre-passes but no licm.
  opt::OptOptions options;
  options.licm = false;
  options.if_convert = false;
  opt::optimize(m, options);
  return m;
}

TEST(Licm, HoistsGlobalAddressOutOfLoop) {
  analysis::AnalysisManager am;
  ir::Module m = prepared(
      "int g[8];\n"
      "int main() { int s = 0;"
      " for (int i = 0; i < 8; i++) s += g[i];"
      " return s; }");
  ir::Function& fn = *m.find_function("main");
  const int body = body_block(fn);
  ASSERT_GE(body, 0);
  ASSERT_EQ(count_in_block(fn, body, IrOp::GlobalAddr), 1u);

  EXPECT_TRUE(opt::pass_licm(fn, am));
  EXPECT_EQ(count_in_block(fn, body, IrOp::GlobalAddr), 0u);
  // Still exactly one gaddr overall — now in the preheader.
  EXPECT_EQ(count_op(fn, IrOp::GlobalAddr), 1u);

  ir::verify_module(m);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 0u);
}

TEST(Licm, LeavesVariantComputationAlone) {
  analysis::AnalysisManager am;
  ir::Module m = prepared(
      "int main() { int s = 0;"
      " for (int i = 0; i < 8; i++) s += i * i;"
      " return s; }");
  ir::Function& fn = *m.find_function("main");
  const int body = body_block(fn);
  ASSERT_GE(body, 0);
  const std::size_t muls_before = count_in_block(fn, body, IrOp::Mul);
  opt::pass_licm(fn, am);
  EXPECT_EQ(count_in_block(fn, body, IrOp::Mul), muls_before);
  ir::verify_module(m);
  EXPECT_EQ(ir::Interpreter(m).run().ret, 140u);
}

TEST(Licm, ZeroTripLoopKeepsSemantics) {
  // The invariant mul must not clobber state observable when the loop
  // body never runs.
  analysis::AnalysisManager am;
  const char* src =
      "int g[1] = {5};\n"
      "int main() { int n = g[0] - 5;"  // 0 at runtime, opaque statically
      "  int s = 123;"
      "  for (int i = 0; i < n; i++) s = g[0] * 7;"
      "  out(s); return s; }";
  ir::Module plain = prepared(src);
  ir::Module hoisted = prepared(src);
  for (ir::Function& fn : hoisted.functions) opt::pass_licm(fn, am);
  ir::verify_module(hoisted);
  EXPECT_EQ(ir::Interpreter(plain).run().output,
            ir::Interpreter(hoisted).run().output);
  EXPECT_EQ(ir::Interpreter(hoisted).run().ret, 123u);
}

TEST(Licm, DoesNotHoistLoadsOrStores) {
  analysis::AnalysisManager am;
  ir::Module m = prepared(
      "int g[1] = {7};\n"
      "int main() { int s = 0;"
      " for (int i = 0; i < 4; i++) { s += g[0]; g[0] = s; }"
      " return s; }");
  ir::Function& fn = *m.find_function("main");
  const int body = body_block(fn);
  ASSERT_GE(body, 0);
  const std::size_t loads = count_in_block(fn, body, IrOp::LoadW);
  opt::pass_licm(fn, am);
  EXPECT_EQ(count_in_block(fn, body, IrOp::LoadW), loads);
}

TEST(Licm, EntryHeaderLoopGetsPreheader) {
  // A while loop at the very start of the function: the header is the
  // entry block (after CFG simplification), so the new preheader must
  // become the entry.
  analysis::AnalysisManager am;
  const char* src =
      "int g[1] = {5};\n"
      "int f(int n) { int s = 0;"
      " while (n > 0) { s += g[0]; n -= 1; }"
      " return s; }";
  ir::Module m = prepared(src);
  ir::Function& fn = *m.find_function("f");
  opt::pass_licm(fn, am);
  ir::verify_module(m);
  ir::Interpreter interp(m);
  const std::uint32_t args[] = {4};
  EXPECT_EQ(interp.run("f", args).ret, 20u);
}

TEST(Licm, FullPipelineWithLicmPreservesWorkloadSemantics) {
  const char* src =
      "int tab[6] = {4, 1, 5, 9, 2, 6};\n"
      "int scale = 3;\n"
      "int main() { int acc = 0;"
      "  for (int i = 0; i < 6; i++) {"
      "    for (int j = 0; j < 6; j++) {"
      "      acc += tab[i] * scale + tab[j];"
      "    }"
      "  }"
      "  out(acc); return acc; }";
  ir::Module plain = minic::compile_to_ir(src);
  const auto gold = ir::Interpreter(plain).run();

  ir::Module optimised = minic::compile_to_ir(src);
  opt::OptOptions options;
  options.licm = true;
  opt::optimize(optimised, options);
  EXPECT_EQ(ir::Interpreter(optimised).run().output, gold.output);
}

}  // namespace
}  // namespace cepic
