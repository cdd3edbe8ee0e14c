#include <gtest/gtest.h>

#include "frontend/ast.hpp"
#include "frontend/irgen.hpp"
#include "support/error.hpp"

namespace cepic::minic {
namespace {

Unit parse_src(std::string_view src) { return parse(lex(src)); }

TEST(Parser, FunctionWithParams) {
  const Unit u = parse_src("int f(int a, int b[]) { return a; }");
  ASSERT_EQ(u.functions.size(), 1u);
  const FuncDecl& f = u.functions[0];
  EXPECT_EQ(f.name, "f");
  EXPECT_TRUE(f.returns_value);
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_FALSE(f.params[0].is_array);
  EXPECT_TRUE(f.params[1].is_array);
}

TEST(Parser, VoidFunctionAndEmptyParams) {
  const Unit u = parse_src("void g() { } void h(void) { }");
  ASSERT_EQ(u.functions.size(), 2u);
  EXPECT_FALSE(u.functions[0].returns_value);
  EXPECT_TRUE(u.functions[0].params.empty());
  EXPECT_TRUE(u.functions[1].params.empty());
}

TEST(Parser, Globals) {
  const Unit u = parse_src(
      "int x = 5;\n"
      "int tab[4] = {1, 2, 3, 4};\n"
      "int msg[] = \"hi\";\n"
      "int buf[100];\n");
  ASSERT_EQ(u.globals.size(), 4u);
  EXPECT_FALSE(u.globals[0]->is_array);
  EXPECT_TRUE(u.globals[0]->has_init_list);
  EXPECT_TRUE(u.globals[1]->is_array);
  EXPECT_EQ(u.globals[1]->init_list.size(), 4u);
  EXPECT_TRUE(u.globals[2]->has_str_init);
  EXPECT_EQ(u.globals[2]->str_init, "hi");
  EXPECT_TRUE(u.globals[3]->is_array);
  EXPECT_EQ(u.globals[3]->array_size, -2);  // size expression parked
}

TEST(Parser, PrecedenceShapesTree) {
  const Unit u = parse_src("int f() { return 1 + 2 * 3; }");
  const Stmt& ret = *u.functions[0].body->body[0];
  ASSERT_EQ(ret.kind, StmtKind::Return);
  const Expr& e = *ret.expr;
  ASSERT_EQ(e.kind, ExprKind::Binary);
  EXPECT_EQ(e.op, Tok::Plus);            // + is the root
  EXPECT_EQ(e.rhs->op, Tok::Star);       // * binds tighter
}

TEST(Parser, AssignmentIsRightAssociative) {
  const Unit u = parse_src("int f() { int a; int b; a = b = 1; return a; }");
  const Stmt& s = *u.functions[0].body->body[2];
  ASSERT_EQ(s.kind, StmtKind::Expr);
  ASSERT_EQ(s.expr->kind, ExprKind::Assign);
  EXPECT_EQ(s.expr->rhs->kind, ExprKind::Assign);
}

TEST(Parser, ControlFlowForms) {
  const Unit u = parse_src(
      "void f() {"
      "  if (1) { } else { }"
      "  while (1) break;"
      "  do { continue; } while (0);"
      "  for (int i = 0; i < 10; i++) { }"
      "  for (;;) break;"
      "}");
  const auto& body = u.functions[0].body->body;
  EXPECT_EQ(body[0]->kind, StmtKind::If);
  EXPECT_TRUE(body[0]->else_s != nullptr);
  EXPECT_EQ(body[1]->kind, StmtKind::While);
  EXPECT_EQ(body[2]->kind, StmtKind::DoWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::For);
  EXPECT_TRUE(body[3]->init != nullptr);
  EXPECT_TRUE(body[3]->expr != nullptr);
  EXPECT_TRUE(body[3]->step != nullptr);
  EXPECT_EQ(body[4]->kind, StmtKind::For);
  EXPECT_TRUE(body[4]->expr == nullptr);
}

TEST(Parser, TernaryAndCalls) {
  const Unit u = parse_src("int f(int a) { return a ? f(a - 1) : 0; }");
  const Expr& e = *u.functions[0].body->body[0]->expr;
  ASSERT_EQ(e.kind, ExprKind::Ternary);
  EXPECT_EQ(e.lhs->kind, ExprKind::Call);
  EXPECT_EQ(e.lhs->args.size(), 1u);
}

TEST(Parser, IndexAndIncDec) {
  const Unit u = parse_src("void f(int a[]) { a[0]++; ++a[1]; a[2] += 3; }");
  const auto& body = u.functions[0].body->body;
  EXPECT_EQ(body[0]->expr->kind, ExprKind::IncDec);
  EXPECT_FALSE(body[0]->expr->prefix);
  EXPECT_EQ(body[1]->expr->kind, ExprKind::IncDec);
  EXPECT_TRUE(body[1]->expr->prefix);
  EXPECT_EQ(body[2]->expr->kind, ExprKind::Assign);
  EXPECT_EQ(body[2]->expr->op, Tok::PlusEq);
}

TEST(Parser, RejectsSyntaxErrors) {
  EXPECT_THROW(parse_src("int f( { }"), CompileError);
  EXPECT_THROW(parse_src("int f() { return 1 }"), CompileError);
  EXPECT_THROW(parse_src("int f() { if 1 { } }"), CompileError);
  EXPECT_THROW(parse_src("int f() { 1 +; }"), CompileError);
  EXPECT_THROW(parse_src("int f() { a[1; }"), CompileError);
  EXPECT_THROW(parse_src("void x;"), CompileError);  // void global
  EXPECT_THROW(parse_src("int f() { 5 = 3; }"), CompileError);
  EXPECT_THROW(parse_src("int f() { ++5; }"), CompileError);
}

TEST(Parser, RejectsUnterminatedBlock) {
  EXPECT_THROW(parse_src("int f() { int a;"), CompileError);
}

std::string repeat(std::string_view piece, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST(Parser, DeepNestingIsACompileErrorNotACrash) {
  // 20k parentheses used to overflow the stack (SIGSEGV).
  const std::string deep = "int main() { return " + repeat("(", 20000) + "1" +
                           repeat(")", 20000) + "; }";
  try {
    (void)compile_to_ir(deep);
    FAIL() << "expected a CompileError";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_src("int f() { " + repeat("-", 20000) + "1; }"),
               CompileError);
  EXPECT_THROW(parse_src("int f() { int a; " + repeat("a = ", 20000) + "1; }"),
               CompileError);
  EXPECT_THROW(parse_src("int f() { return " + repeat("1 ? 1 : ", 20000) +
                         "1; }"),
               CompileError);
  EXPECT_THROW(parse_src("int f() { return " + repeat("1 ? ", 20000) + "1" +
                         repeat(" : 1", 20000) + "; }"),
               CompileError);
  EXPECT_THROW(parse_src("int f() " + repeat("{", 20000) + repeat("}", 20000)),
               CompileError);
  // Ordinary depths still parse.
  EXPECT_NO_THROW(parse_src("int f() { return " + repeat("(", 100) + "1" +
                            repeat(")", 100) + "; }"));
  EXPECT_NO_THROW(
      parse_src("int f() " + repeat("{", 100) + repeat("}", 100)));
}

TEST(Parser, LongOperatorChainIsACompileErrorNotACrash) {
  // A 20k-term sum used to crash (exit 139): the parser builds the
  // left-deep chain in a loop, then irgen and the AST destructor recurse
  // down it.
  const std::string sum =
      "int main() { int a = 1;\n  return a" + repeat(" + a", 19999) + "; }";
  try {
    (void)compile_to_ir(sum);
    FAIL() << "expected a CompileError";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("operator chain deeper than 1024 "
                                         "links"),
              std::string::npos)
        << e.what();
  }
  // Postfix chains count as well.
  EXPECT_THROW(parse_src("int f() { int a[2]; return a" +
                         repeat("[0]", 20000) + "; }"),
               CompileError);
  EXPECT_THROW(parse_src("int f() { int a[2]; return a" +
                         repeat("[0]++", 10000) + "; }"),
               CompileError);
  // The budget bounds the height of the tree, not the length of one
  // chain: 50 nested parentheses, each around a 100-link chain, stack
  // 5000 links on one path.
  std::string nested = "a";
  for (int i = 0; i < 50; ++i) nested = "(" + nested + repeat(" + a", 100) + ")";
  EXPECT_THROW(parse_src("int f() { int a; return " + nested + "; }"),
               CompileError);
  // A chain at the budget compiles, and chains side by side do not add
  // up.
  EXPECT_NO_THROW((void)compile_to_ir("int main() { int a = 1; return a" +
                                      repeat(" + a", 1024) + "; }"));
  EXPECT_NO_THROW(parse_src("int f(int x, int y) { return x; }\n"
                            "int g() { int a; return f(a" +
                            repeat(" * a", 1000) + ", a" +
                            repeat(" * a", 1000) + "); }"));
}

}  // namespace
}  // namespace cepic::minic
