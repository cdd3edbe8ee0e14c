#include <algorithm>
#include <utility>

#include "frontend/ast.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::minic {

namespace {

/// How deep statements and expressions may nest (parentheses, unary
/// operators, assignment and conditional chains, statement bodies).
/// Deeper input is a CompileError rather than a stack overflow in this
/// recursive-descent parser. C11 (5.2.4.1) asks compilers for at least
/// 63 parenthesised and 127 block levels.
constexpr int kMaxNesting = 256;

/// How many links one operator chain may stack on any path of the AST:
/// binary operators (`a+a+…+a`) and postfix `[i]`/`++`/`--`. Chains are
/// parsed in a loop, so kMaxNesting does not see them, but the tree
/// they build is as deep as the chain is long, and irgen and the AST
/// destructor recurse down it. Longer input is a CompileError at the
/// operator that crosses the budget rather than a stack overflow. The
/// paper workloads reach 6 links; irgen overflowed an 8 MiB stack under
/// AddressSanitizer near 3000.
constexpr int kMaxChainHeight = 1024;

class Parser {
public:
  explicit Parser(const std::vector<Token>& tokens) : toks_(tokens) {}

  Unit parse_unit() {
    Unit unit;
    while (!at(Tok::End)) {
      // Both globals and functions start with `int`/`void`.
      const bool is_void = at(Tok::KwVoid);
      if (is_void) {
        advance();
      } else {
        expect(Tok::KwInt, "declaration");
      }
      const Token name = expect(Tok::Ident, "declaration name");
      if (at(Tok::LParen)) {
        unit.functions.push_back(parse_function(name, !is_void));
      } else {
        if (is_void) error(name, "globals must be `int`");
        unit.globals.push_back(parse_decl_tail(name));
      }
    }
    return unit;
  }

private:
  [[noreturn]] void error(const Token& t, const std::string& msg) const {
    throw CompileError(cat(msg, " (got ", tok_name(t.kind), ")"), t.line,
                       t.col);
  }

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }

  bool at(Tok kind) const { return peek().kind == kind; }

  const Token& advance() { return toks_[std::min(pos_++, toks_.size() - 1)]; }

  bool match(Tok kind) {
    if (!at(kind)) return false;
    advance();
    return true;
  }

  /// One nesting level, held while a nested construct is parsed.
  class Nest {
  public:
    Nest(Parser& p, const Token& at) : p_(p) {
      if (++p_.depth_ > kMaxNesting) {
        throw CompileError(cat("nesting deeper than ", kMaxNesting, " levels"),
                           at.line, at.col);
      }
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

  private:
    Parser& p_;
  };

  /// The links of one chain while it is parsed. height_ carries the
  /// chain height of the last operand out of the parse functions; a
  /// chain folds each operand in with operand(), counts each operator
  /// with link(), and hands its own height to the enclosing chain when
  /// it ends.
  class Chain {
  public:
    explicit Chain(Parser& p) : p_(p), outer_(p.height_) { p_.height_ = 0; }
    ~Chain() { p_.height_ = std::max(outer_, height_); }
    Chain(const Chain&) = delete;
    Chain& operator=(const Chain&) = delete;

    /// Call after each operand is parsed.
    void operand() {
      height_ = std::max(height_, p_.height_);
      p_.height_ = 0;
    }
    /// Call for each link, after its operand.
    void link(const Token& op) {
      if (++height_ > kMaxChainHeight) {
        throw CompileError(
            cat("operator chain deeper than ", kMaxChainHeight, " links"),
            op.line, op.col);
      }
    }

  private:
    Parser& p_;
    int outer_;
    int height_ = 0;
  };

  const Token& expect(Tok kind, const std::string& what) {
    if (!at(kind)) error(peek(), cat("expected ", tok_name(kind), " in ", what));
    return advance();
  }

  template <typename... Args>
  ExprPtr make_expr(ExprKind kind, const Token& loc, Args&&... init) {
    auto e = std::make_unique<Expr>(std::forward<Args>(init)...);
    e->kind = kind;
    e->line = loc.line;
    e->col = loc.col;
    return e;
  }

  StmtPtr make_stmt(StmtKind kind, const Token& loc) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->line = loc.line;
    s->col = loc.col;
    return s;
  }

  // ---- declarations ----

  FuncDecl parse_function(const Token& name, bool returns_value) {
    FuncDecl fn;
    fn.name = name.text;
    fn.returns_value = returns_value;
    fn.line = name.line;
    fn.col = name.col;
    expect(Tok::LParen, "parameter list");
    if (!at(Tok::RParen)) {
      do {
        if (match(Tok::KwVoid)) break;  // `f(void)`
        expect(Tok::KwInt, "parameter");
        const Token pname = expect(Tok::Ident, "parameter name");
        ParamDecl p;
        p.name = pname.text;
        p.line = pname.line;
        p.col = pname.col;
        if (match(Tok::LBracket)) {
          expect(Tok::RBracket, "array parameter");
          p.is_array = true;
        }
        fn.params.push_back(std::move(p));
      } while (match(Tok::Comma));
    }
    expect(Tok::RParen, "parameter list");
    fn.body = parse_block();
    return fn;
  }

  /// Parses the remainder of `int NAME ...;` (global or local decl).
  StmtPtr parse_decl_tail(const Token& name) {
    StmtPtr s = make_stmt(StmtKind::Decl, name);
    s->name = name.text;
    if (match(Tok::LBracket)) {
      s->is_array = true;
      if (at(Tok::RBracket)) {
        s->array_size = -1;  // size from initialiser
      } else {
        ExprPtr size = parse_expr();
        s->expr = std::move(size);  // temporarily park the size expression
        // The IR generator const-folds this; store it in init position.
        s->array_size = -2;  // marker: size expression in s->expr
      }
      expect(Tok::RBracket, "array declaration");
    }
    if (match(Tok::Assign)) {
      if (s->is_array) {
        if (at(Tok::StrLit)) {
          const Token& lit = advance();
          s->has_str_init = true;
          s->str_init = lit.text;
        } else {
          expect(Tok::LBrace, "array initialiser");
          s->has_init_list = true;
          if (!at(Tok::RBrace)) {
            do {
              s->init_list.push_back(parse_assignment());
            } while (match(Tok::Comma) && !at(Tok::RBrace));
          }
          expect(Tok::RBrace, "array initialiser");
        }
      } else {
        ExprPtr init = parse_assignment();
        s->has_init_list = true;
        s->init_list.push_back(std::move(init));
      }
    }
    expect(Tok::Semi, "declaration");
    return s;
  }

  // ---- statements ----

  StmtPtr parse_block() {
    const Token& brace = expect(Tok::LBrace, "block");
    StmtPtr s = make_stmt(StmtKind::Block, brace);
    while (!at(Tok::RBrace)) {
      if (at(Tok::End)) error(peek(), "unterminated block");
      s->body.push_back(parse_stmt());
    }
    expect(Tok::RBrace, "block");
    return s;
  }

  StmtPtr parse_stmt() {
    const Token& t = peek();
    const Nest nest(*this, t);
    switch (t.kind) {
      case Tok::LBrace:
        return parse_block();
      case Tok::Semi: {
        advance();
        return make_stmt(StmtKind::Empty, t);
      }
      case Tok::KwInt: {
        advance();
        const Token name = expect(Tok::Ident, "declaration name");
        return parse_decl_tail(name);
      }
      case Tok::KwIf: {
        advance();
        StmtPtr s = make_stmt(StmtKind::If, t);
        expect(Tok::LParen, "if condition");
        s->expr = parse_expr();
        expect(Tok::RParen, "if condition");
        s->then_s = parse_stmt();
        if (match(Tok::KwElse)) s->else_s = parse_stmt();
        return s;
      }
      case Tok::KwWhile: {
        advance();
        StmtPtr s = make_stmt(StmtKind::While, t);
        expect(Tok::LParen, "while condition");
        s->expr = parse_expr();
        expect(Tok::RParen, "while condition");
        s->then_s = parse_stmt();
        return s;
      }
      case Tok::KwDo: {
        advance();
        StmtPtr s = make_stmt(StmtKind::DoWhile, t);
        s->then_s = parse_stmt();
        expect(Tok::KwWhile, "do-while");
        expect(Tok::LParen, "do-while condition");
        s->expr = parse_expr();
        expect(Tok::RParen, "do-while condition");
        expect(Tok::Semi, "do-while");
        return s;
      }
      case Tok::KwFor: {
        advance();
        StmtPtr s = make_stmt(StmtKind::For, t);
        expect(Tok::LParen, "for header");
        if (!at(Tok::Semi)) {
          if (at(Tok::KwInt)) {
            advance();
            const Token name = expect(Tok::Ident, "declaration name");
            s->init = parse_decl_tail(name);  // consumes `;`
          } else {
            StmtPtr init = make_stmt(StmtKind::Expr, peek());
            init->expr = parse_expr();
            s->init = std::move(init);
            expect(Tok::Semi, "for header");
          }
        } else {
          advance();
        }
        if (!at(Tok::Semi)) s->expr = parse_expr();
        expect(Tok::Semi, "for header");
        if (!at(Tok::RParen)) {
          StmtPtr step = make_stmt(StmtKind::Expr, peek());
          step->expr = parse_expr();
          s->step = std::move(step);
        }
        expect(Tok::RParen, "for header");
        s->then_s = parse_stmt();
        return s;
      }
      case Tok::KwReturn: {
        advance();
        StmtPtr s = make_stmt(StmtKind::Return, t);
        if (!at(Tok::Semi)) s->expr = parse_expr();
        expect(Tok::Semi, "return");
        return s;
      }
      case Tok::KwBreak: {
        advance();
        expect(Tok::Semi, "break");
        return make_stmt(StmtKind::Break, t);
      }
      case Tok::KwContinue: {
        advance();
        expect(Tok::Semi, "continue");
        return make_stmt(StmtKind::Continue, t);
      }
      default: {
        StmtPtr s = make_stmt(StmtKind::Expr, t);
        s->expr = parse_expr();
        expect(Tok::Semi, "expression statement");
        return s;
      }
    }
  }

  // ---- expressions (C precedence, right-assoc assignment) ----

  ExprPtr parse_expr() { return parse_assignment(); }

  bool is_assign_op(Tok t) const {
    switch (t) {
      case Tok::Assign:
      case Tok::PlusEq:
      case Tok::MinusEq:
      case Tok::StarEq:
      case Tok::SlashEq:
      case Tok::PercentEq:
      case Tok::AmpEq:
      case Tok::PipeEq:
      case Tok::CaretEq:
      case Tok::ShlEq:
      case Tok::ShrEq:
        return true;
      default:
        return false;
    }
  }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_ternary();
    if (is_assign_op(peek().kind)) {
      const Token& op = advance();
      if (lhs->kind != ExprKind::Var && lhs->kind != ExprKind::Index) {
        error(op, "left side of assignment must be a variable or element");
      }
      ExprPtr e = make_expr(ExprKind::Assign, op);
      e->op = op.kind;
      e->lhs = std::move(lhs);
      const Nest nest(*this, op);
      e->rhs = parse_assignment();
      return e;
    }
    return lhs;
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_logical_or();
    if (!at(Tok::Question)) return cond;
    const Token& q = advance();
    // Both arms nest: `a ? b ? c : d : e` recurses through the middle.
    const Nest nest(*this, q);
    ExprPtr e = make_expr(ExprKind::Ternary, q);
    e->cond = std::move(cond);
    e->lhs = parse_assignment();
    expect(Tok::Colon, "conditional expression");
    e->rhs = parse_ternary();
    return e;
  }

  ExprPtr parse_binary_chain(ExprPtr (Parser::*next)(),
                             std::initializer_list<Tok> ops) {
    Chain chain(*this);
    ExprPtr lhs = (this->*next)();
    chain.operand();
    for (;;) {
      bool matched = false;
      for (Tok op : ops) {
        if (at(op)) {
          const Token& tok = advance();
          ExprPtr e = make_expr(ExprKind::Binary, tok);
          e->op = op;
          e->lhs = std::move(lhs);
          e->rhs = (this->*next)();
          chain.operand();
          chain.link(tok);
          lhs = std::move(e);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  ExprPtr parse_logical_or() {
    return parse_binary_chain(&Parser::parse_logical_and, {Tok::PipePipe});
  }
  ExprPtr parse_logical_and() {
    return parse_binary_chain(&Parser::parse_bitor, {Tok::AmpAmp});
  }
  ExprPtr parse_bitor() {
    return parse_binary_chain(&Parser::parse_bitxor, {Tok::Pipe});
  }
  ExprPtr parse_bitxor() {
    return parse_binary_chain(&Parser::parse_bitand, {Tok::Caret});
  }
  ExprPtr parse_bitand() {
    return parse_binary_chain(&Parser::parse_equality, {Tok::Amp});
  }
  ExprPtr parse_equality() {
    return parse_binary_chain(&Parser::parse_relational,
                              {Tok::EqEq, Tok::NotEq});
  }
  ExprPtr parse_relational() {
    return parse_binary_chain(&Parser::parse_shift,
                              {Tok::Lt, Tok::Le, Tok::Gt, Tok::Ge});
  }
  ExprPtr parse_shift() {
    return parse_binary_chain(&Parser::parse_additive,
                              {Tok::Shl, Tok::Shr, Tok::Sar});
  }
  ExprPtr parse_additive() {
    return parse_binary_chain(&Parser::parse_multiplicative,
                              {Tok::Plus, Tok::Minus});
  }
  ExprPtr parse_multiplicative() {
    return parse_binary_chain(&Parser::parse_unary,
                              {Tok::Star, Tok::Slash, Tok::Percent});
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    const Nest nest(*this, t);
    switch (t.kind) {
      case Tok::Minus:
      case Tok::Tilde:
      case Tok::Bang: {
        advance();
        ExprPtr e = make_expr(ExprKind::Unary, t);
        e->op = t.kind;
        e->rhs = parse_unary();
        return e;
      }
      case Tok::Plus:
        advance();
        return parse_unary();
      case Tok::PlusPlus:
      case Tok::MinusMinus: {
        advance();
        ExprPtr e = make_expr(ExprKind::IncDec, t);
        e->op = t.kind;
        e->prefix = true;
        e->lhs = parse_unary();
        if (e->lhs->kind != ExprKind::Var && e->lhs->kind != ExprKind::Index) {
          error(t, "++/-- needs a variable or element");
        }
        return e;
      }
      default:
        return parse_postfix();
    }
  }

  ExprPtr parse_postfix() {
    Chain chain(*this);
    ExprPtr e = parse_primary();
    chain.operand();
    for (;;) {
      const Token& t = peek();
      if (t.kind == Tok::LBracket) {
        advance();
        ExprPtr idx = make_expr(ExprKind::Index, t);
        idx->lhs = std::move(e);
        idx->rhs = parse_expr();
        chain.operand();
        chain.link(t);
        expect(Tok::RBracket, "index expression");
        e = std::move(idx);
      } else if (t.kind == Tok::PlusPlus || t.kind == Tok::MinusMinus) {
        chain.link(t);
        advance();
        if (e->kind != ExprKind::Var && e->kind != ExprKind::Index) {
          error(t, "++/-- needs a variable or element");
        }
        ExprPtr inc = make_expr(ExprKind::IncDec, t);
        inc->op = t.kind;
        inc->prefix = false;
        inc->lhs = std::move(e);
        e = std::move(inc);
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case Tok::IntLit: {
        advance();
        ExprPtr e = make_expr(ExprKind::IntLit, t);
        e->value = t.value;
        return e;
      }
      case Tok::Ident: {
        advance();
        if (at(Tok::LParen)) {
          advance();
          ExprPtr e = make_expr(ExprKind::Call, t);
          e->name = t.text;
          if (!at(Tok::RParen)) {
            do {
              e->args.push_back(parse_assignment());
            } while (match(Tok::Comma));
          }
          expect(Tok::RParen, "call");
          return e;
        }
        ExprPtr e = make_expr(ExprKind::Var, t);
        e->name = t.text;
        return e;
      }
      case Tok::LParen: {
        advance();
        ExprPtr e = parse_expr();
        expect(Tok::RParen, "parenthesised expression");
        return e;
      }
      default:
        error(t, "expected an expression");
    }
  }

  const std::vector<Token>& toks_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int height_ = 0;  ///< chain height of the last operand (see Chain)
};

}  // namespace

Unit parse(const std::vector<Token>& tokens) {
  CEPIC_CHECK(!tokens.empty() && tokens.back().kind == Tok::End,
              "token stream must end with End");
  return Parser(tokens).parse_unit();
}

}  // namespace cepic::minic
