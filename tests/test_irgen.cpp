// Semantic-analysis tests (errors) plus structural checks on generated IR.
#include <gtest/gtest.h>

#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "ir/verify.hpp"
#include "core/program.hpp"
#include "support/error.hpp"

namespace cepic::minic {
namespace {

TEST(IrGen, SimpleFunctionShape) {
  const ir::Module m = compile_to_ir("int f(int a) { return a + 1; }");
  const ir::Function* f = m.find_function("f");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->returns_value);
  EXPECT_EQ(f->params.size(), 1u);
  ASSERT_FALSE(f->blocks.empty());
  EXPECT_EQ(f->blocks[0].terminator().op, ir::IrOp::Ret);
}

TEST(IrGen, GlobalLayoutAndInitialisers) {
  const ir::Module m = compile_to_ir(
      "int a = 7;\n"
      "int t[3] = {1, -2, 0x10};\n"
      "int s[] = \"AB\";\n"
      "int z[5];\n"
      "void f() { }\n");
  ASSERT_EQ(m.globals.size(), 4u);
  EXPECT_EQ(m.globals[0].init_words, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(m.globals[1].init_words,
            (std::vector<std::uint32_t>{1, 0xFFFFFFFEu, 16}));
  EXPECT_EQ(m.globals[2].size_words, 2u);
  EXPECT_EQ(m.globals[2].init_words, (std::vector<std::uint32_t>{65, 66}));
  EXPECT_EQ(m.globals[3].size_words, 5u);
  EXPECT_TRUE(m.globals[3].init_words.empty());

  const ir::DataLayout layout =
      ir::layout_globals(m, ir::InterpOptions{}.mem_size);
  EXPECT_EQ(layout.global_addr[0], cepic::kDataBase);
  EXPECT_EQ(layout.global_addr[1], cepic::kDataBase + 4);
  EXPECT_EQ(layout.global_addr[2], cepic::kDataBase + 16);
  EXPECT_EQ(layout.image.size(), (1 + 3 + 2 + 5) * 4u);
  // Big-endian word 7 at offset 0.
  EXPECT_EQ(layout.image[3], 7);
}

TEST(IrGen, ConstantFoldedGlobalSizesAndInits) {
  const ir::Module m = compile_to_ir(
      "int n[4 * 4];\n"
      "int k = (1 << 4) | 3;\n"
      "int c = 1 < 2 ? 10 : 20;\n");
  EXPECT_EQ(m.globals[0].size_words, 16u);
  EXPECT_EQ(m.globals[1].init_words[0], 19u);
  EXPECT_EQ(m.globals[2].init_words[0], 10u);
}

TEST(IrGen, GeneratedIrPassesVerifier) {
  const ir::Module m = compile_to_ir(
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
      "int main() { return fib(10); }\n");
  EXPECT_NO_THROW(ir::verify_module(m, /*require_main=*/true));
}

TEST(IrGen, LocalArraysUseTheFrame) {
  const ir::Module m = compile_to_ir(
      "int f() { int a[8]; int b[2] = {5, 6}; a[0] = b[1]; return a[0]; }");
  const ir::Function* f = m.find_function("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->frame_bytes, (8 + 2) * 4u);
}

// ---- semantic errors ----

TEST(IrGenErrors, UndeclaredVariable) {
  EXPECT_THROW(compile_to_ir("int f() { return x; }"), CompileError);
}

TEST(IrGenErrors, UndeclaredFunction) {
  EXPECT_THROW(compile_to_ir("int f() { return g(); }"), CompileError);
}

TEST(IrGenErrors, WrongArgumentCount) {
  EXPECT_THROW(compile_to_ir("int g(int a) { return a; }"
                             "int f() { return g(1, 2); }"),
               CompileError);
}

TEST(IrGenErrors, RedeclarationInSameScope) {
  EXPECT_THROW(compile_to_ir("int f() { int a; int a; return 0; }"),
               CompileError);
}

TEST(IrGenErrors, ShadowingInInnerScopeIsAllowed) {
  EXPECT_NO_THROW(
      compile_to_ir("int f() { int a = 1; { int a = 2; a; } return a; }"));
}

TEST(IrGenErrors, DuplicateFunction) {
  EXPECT_THROW(compile_to_ir("void f() { } void f() { }"), CompileError);
}

TEST(IrGenErrors, DuplicateGlobal) {
  EXPECT_THROW(compile_to_ir("int x; int x;"), CompileError);
}

TEST(IrGenErrors, ArrayUsedAsValue) {
  EXPECT_THROW(compile_to_ir("int t[4]; int f() { return t + 1; }"),
               CompileError);
}

TEST(IrGenErrors, ScalarIndexed) {
  EXPECT_THROW(compile_to_ir("int x; int f() { return x[0]; }"),
               CompileError);
}

TEST(IrGenErrors, ScalarPassedWhereArrayExpected) {
  EXPECT_THROW(compile_to_ir("int g(int a[]) { return a[0]; }"
                             "int f() { int x; return g(x); }"),
               CompileError);
}

TEST(IrGenErrors, BreakOutsideLoop) {
  EXPECT_THROW(compile_to_ir("void f() { break; }"), CompileError);
  EXPECT_THROW(compile_to_ir("void f() { continue; }"), CompileError);
}

TEST(IrGenErrors, VoidReturningValue) {
  EXPECT_THROW(compile_to_ir("void f() { return 1; }"), CompileError);
}

TEST(IrGenErrors, NonVoidReturningNothing) {
  EXPECT_THROW(compile_to_ir("int f() { return; }"), CompileError);
}

TEST(IrGenErrors, NonConstantGlobalInitialiser) {
  EXPECT_THROW(compile_to_ir("int g() { return 1; } int x = g();"),
               CompileError);
}

TEST(IrGenErrors, NonPositiveArraySize) {
  EXPECT_THROW(compile_to_ir("int t[0];"), CompileError);
  EXPECT_THROW(compile_to_ir("int t[-3];"), CompileError);
}

TEST(IrGenErrors, TooManyInitialisers) {
  EXPECT_THROW(compile_to_ir("int t[2] = {1, 2, 3};"), CompileError);
}

TEST(IrGenErrors, BuiltinArity) {
  EXPECT_THROW(compile_to_ir("void f() { out(); }"), CompileError);
  EXPECT_THROW(compile_to_ir("void f() { out(1, 2); }"), CompileError);
  EXPECT_THROW(compile_to_ir("int f() { return min(1); }"), CompileError);
  EXPECT_THROW(compile_to_ir("int f() { return abs(1, 2); }"), CompileError);
}

}  // namespace
}  // namespace cepic::minic
