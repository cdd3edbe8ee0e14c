#include "analysis/intervals.hpp"

#include <algorithm>
#include <deque>

#include "core/eval.hpp"
#include "core/isa.hpp"
#include "support/text.hpp"

namespace cepic::analysis {

using ir::IrInst;
using ir::IrOp;
using ir::VReg;

namespace {

constexpr int kWidenAfterVisits = 16;

Op alu_op_of(IrOp op) {
  switch (op) {
    case IrOp::Add: return Op::ADD;
    case IrOp::Sub: return Op::SUB;
    case IrOp::Mul: return Op::MUL;
    case IrOp::Div: return Op::DIV;
    case IrOp::Rem: return Op::REM;
    case IrOp::And: return Op::AND;
    case IrOp::Or: return Op::OR;
    case IrOp::Xor: return Op::XOR;
    case IrOp::Shl: return Op::SHL;
    case IrOp::Shra: return Op::SHRA;
    case IrOp::Shrl: return Op::SHRL;
    case IrOp::Min: return Op::MIN;
    case IrOp::Max: return Op::MAX;
    default: break;
  }
  CEPIC_CHECK(false, "not a binary ALU IrOp");
}

Op cmp_op_of(IrOp op) {
  switch (op) {
    case IrOp::CmpEq: return Op::CMPP_EQ;
    case IrOp::CmpNe: return Op::CMPP_NE;
    case IrOp::CmpLt: return Op::CMPP_LT;
    case IrOp::CmpLe: return Op::CMPP_LE;
    case IrOp::CmpGt: return Op::CMPP_GT;
    case IrOp::CmpGe: return Op::CMPP_GE;
    case IrOp::CmpLtU: return Op::CMPP_LTU;
    case IrOp::CmpLeU: return Op::CMPP_LEU;
    case IrOp::CmpGtU: return Op::CMPP_GTU;
    case IrOp::CmpGeU: return Op::CMPP_GEU;
    default: break;
  }
  CEPIC_CHECK(false, "not a compare IrOp");
}

std::uint32_t bits_of(std::int64_t v) {
  return static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
}

Interval clamp_or_full(std::int64_t lo, std::int64_t hi) {
  if (lo < INT32_MIN || hi > INT32_MAX) return Interval::full();
  return {lo, hi};
}

/// The unsigned 32-bit view of a signed interval, when it does not wrap
/// around: [lo,hi] both negative or both non-negative maps to one
/// unsigned range; a sign-crossing interval has a wrapped unsigned image.
bool unsigned_view(const Interval& iv, std::uint64_t& lo,
                   std::uint64_t& hi) {
  if (iv.lo >= 0) {
    lo = static_cast<std::uint64_t>(iv.lo);
    hi = static_cast<std::uint64_t>(iv.hi);
    return true;
  }
  if (iv.hi < 0) {
    lo = static_cast<std::uint64_t>(iv.lo + (std::int64_t{1} << 32));
    hi = static_cast<std::uint64_t>(iv.hi + (std::int64_t{1} << 32));
    return true;
  }
  return false;
}

/// Interval transfer for a binary ALU op; exact (via the shared
/// combinational evaluator) on constants, interval rules otherwise.
Interval alu_interval(IrOp op, const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  if (a.is_const() && b.is_const()) {
    const std::uint32_t r =
        eval_alu(alu_op_of(op), bits_of(a.lo), bits_of(b.lo), 32);
    return Interval::constant(static_cast<std::int32_t>(r));
  }
  switch (op) {
    case IrOp::Add:
      return clamp_or_full(a.lo + b.lo, a.hi + b.hi);
    case IrOp::Sub:
      return clamp_or_full(a.lo - b.hi, a.hi - b.lo);
    case IrOp::Mul: {
      const std::int64_t p[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo,
                                 a.hi * b.hi};
      return clamp_or_full(*std::min_element(p, p + 4),
                           *std::max_element(p, p + 4));
    }
    case IrOp::Div:
      // Truncating division is monotone for a non-negative dividend and
      // a positive constant divisor (matches eval_alu off the corner
      // cases, which need b == 0 or negative operands).
      if (a.lo >= 0 && b.is_const() && b.lo > 0) {
        return {a.lo / b.lo, a.hi / b.lo};
      }
      return Interval::full();
    case IrOp::Rem:
      if (a.lo >= 0 && b.is_const() && b.lo > 0) {
        return {0, std::min(a.hi, b.lo - 1)};
      }
      return Interval::full();
    case IrOp::And:
      if (a.lo >= 0 && b.lo >= 0) return {0, std::min(a.hi, b.hi)};
      return Interval::full();
    case IrOp::Or:
      // For non-negative x, y: max(x, y) <= x|y <= x + y.
      if (a.lo >= 0 && b.lo >= 0) {
        return clamp_or_full(std::max(a.lo, b.lo), a.hi + b.hi);
      }
      return Interval::full();
    case IrOp::Xor:
      if (a.lo >= 0 && b.lo >= 0) return clamp_or_full(0, a.hi + b.hi);
      return Interval::full();
    case IrOp::Shrl:
    case IrOp::Shra:
      // Right shift of a non-negative range by a constant in [0,31].
      if (a.lo >= 0 && b.is_const() && b.lo >= 0 && b.lo < 32) {
        return {a.lo >> b.lo, a.hi >> b.lo};
      }
      return Interval::full();
    case IrOp::Shl:
      if (a.lo >= 0 && b.is_const() && b.lo >= 0 && b.lo < 32) {
        return clamp_or_full(a.lo << b.lo, a.hi << b.lo);
      }
      return Interval::full();
    case IrOp::Min:
      return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
    case IrOp::Max:
      return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
    default:
      return Interval::full();
  }
}

/// Compare decision over intervals: 0 = always false, 1 = always true,
/// -1 = unknown.
int cmp_decide(IrOp op, const Interval& a, const Interval& b) {
  if (a.is_const() && b.is_const()) {
    return eval_cmpp(cmp_op_of(op), bits_of(a.lo), bits_of(b.lo), 32) ? 1 : 0;
  }
  switch (op) {
    case IrOp::CmpEq:
      if (a.hi < b.lo || b.hi < a.lo) return 0;
      return -1;
    case IrOp::CmpNe:
      if (a.hi < b.lo || b.hi < a.lo) return 1;
      return -1;
    case IrOp::CmpLt:
      if (a.hi < b.lo) return 1;
      if (a.lo >= b.hi) return 0;
      return -1;
    case IrOp::CmpLe:
      if (a.hi <= b.lo) return 1;
      if (a.lo > b.hi) return 0;
      return -1;
    case IrOp::CmpGt:
      return cmp_decide(IrOp::CmpLt, b, a);
    case IrOp::CmpGe:
      return cmp_decide(IrOp::CmpLe, b, a);
    case IrOp::CmpLtU:
    case IrOp::CmpLeU:
    case IrOp::CmpGtU:
    case IrOp::CmpGeU: {
      std::uint64_t alo, ahi, blo, bhi;
      if (!unsigned_view(a, alo, ahi) || !unsigned_view(b, blo, bhi)) {
        return -1;
      }
      switch (op) {
        case IrOp::CmpLtU:
          if (ahi < blo) return 1;
          if (alo >= bhi) return 0;
          return -1;
        case IrOp::CmpLeU:
          if (ahi <= blo) return 1;
          if (alo > bhi) return 0;
          return -1;
        case IrOp::CmpGtU:
          if (bhi < alo) return 1;
          if (blo >= ahi) return 0;
          return -1;
        default:  // CmpGeU
          if (bhi <= alo) return 1;
          if (blo > ahi) return 0;
          return -1;
      }
    }
    default:
      return -1;
  }
}

struct Analyzer {
  const ir::Module& module;
  const ir::Function& fn;
  const Cfg& cfg;
  std::vector<std::uint32_t> global_addr;
  IntervalAnalysis& ia;

  Interval concretize(const AbsVal& v) const {
    if (v.kind != AbsVal::Kind::GlobalPtr) return v.iv;
    const std::int64_t base = global_addr[v.global];
    return clamp_or_full(base + v.iv.lo, base + v.iv.hi);
  }

  AbsVal as_number(const AbsVal& v) const {
    if (v.kind != AbsVal::Kind::GlobalPtr) return v;
    return AbsVal::number(concretize(v));
  }

  /// Join `from` into `into`; returns true on change.  `widen` loosens
  /// any moving bound to its extreme so loops terminate.
  bool join(AbsVal& into, const AbsVal& from, bool widen) const {
    if (from.is_bottom()) return false;
    if (into.is_bottom()) {
      into = from;
      return true;
    }
    AbsVal a = into;
    AbsVal b = from;
    if (a.kind == AbsVal::Kind::GlobalPtr &&
        (b.kind != AbsVal::Kind::GlobalPtr || b.global != a.global)) {
      a = as_number(a);
      b = as_number(b);
    } else if (b.kind == AbsVal::Kind::GlobalPtr &&
               a.kind != AbsVal::Kind::GlobalPtr) {
      b = as_number(b);
    }
    AbsVal joined = a;
    if (b.iv.lo < joined.iv.lo) {
      joined.iv.lo = widen ? INT32_MIN : b.iv.lo;
    }
    if (b.iv.hi > joined.iv.hi) {
      joined.iv.hi = widen ? INT32_MAX : b.iv.hi;
    }
    if (joined == into) return false;
    into = joined;
    return true;
  }

  AbsVal value_of(const std::vector<AbsVal>& state,
                  const ir::Value& v) const {
    if (v.is_imm()) return AbsVal::constant(v.imm);
    if (v.is_reg()) return state[v.reg];
    return AbsVal::top();
  }

  /// Abstract result of a value-producing instruction.
  AbsVal eval_inst(const std::vector<AbsVal>& state,
                   const IrInst& inst) const {
    switch (inst.op) {
      case IrOp::Mov:
        return value_of(state, inst.a);
      case IrOp::GlobalAddr:
        return AbsVal::global_ptr(inst.global_index, Interval::constant(0));
      case IrOp::Add: {
        const AbsVal a = value_of(state, inst.a);
        const AbsVal b = value_of(state, inst.b);
        if (a.kind == AbsVal::Kind::GlobalPtr &&
            b.kind == AbsVal::Kind::Number) {
          const Interval off =
              alu_interval(IrOp::Add, a.iv, b.iv);
          if (!off.is_full()) return AbsVal::global_ptr(a.global, off);
        }
        if (b.kind == AbsVal::Kind::GlobalPtr &&
            a.kind == AbsVal::Kind::Number) {
          const Interval off = alu_interval(IrOp::Add, b.iv, a.iv);
          if (!off.is_full()) return AbsVal::global_ptr(b.global, off);
        }
        return AbsVal::number(
            alu_interval(IrOp::Add, concretize(a), concretize(b)));
      }
      case IrOp::Sub: {
        const AbsVal a = value_of(state, inst.a);
        const AbsVal b = value_of(state, inst.b);
        if (a.kind == AbsVal::Kind::GlobalPtr &&
            b.kind == AbsVal::Kind::Number) {
          const Interval off = alu_interval(IrOp::Sub, a.iv, b.iv);
          if (!off.is_full()) return AbsVal::global_ptr(a.global, off);
        }
        if (a.kind == AbsVal::Kind::GlobalPtr &&
            b.kind == AbsVal::Kind::GlobalPtr && a.global == b.global) {
          return AbsVal::number(alu_interval(IrOp::Sub, a.iv, b.iv));
        }
        return AbsVal::number(
            alu_interval(IrOp::Sub, concretize(a), concretize(b)));
      }
      case IrOp::CmpEq:
      case IrOp::CmpNe:
      case IrOp::CmpLt:
      case IrOp::CmpLe:
      case IrOp::CmpGt:
      case IrOp::CmpGe:
      case IrOp::CmpLtU:
      case IrOp::CmpLeU:
      case IrOp::CmpGtU:
      case IrOp::CmpGeU: {
        const Interval a = concretize(value_of(state, inst.a));
        const Interval b = concretize(value_of(state, inst.b));
        const int d = cmp_decide(inst.op, a, b);
        if (d < 0) return AbsVal::number({0, 1});
        return AbsVal::constant(d);
      }
      case IrOp::LoadW:
      case IrOp::LoadBU:
        return AbsVal::top();
      case IrOp::LoadB:
        return AbsVal::number({-128, 127});
      case IrOp::FrameAddr:
      case IrOp::Call:
        return AbsVal::top();
      default:
        if (ir::is_binary_alu(inst.op)) {
          const Interval a = concretize(value_of(state, inst.a));
          const Interval b = concretize(value_of(state, inst.b));
          return AbsVal::number(alu_interval(inst.op, a, b));
        }
        return AbsVal::top();
    }
  }

  /// Guard decision from the current state: 1 = commits, 0 = nullified,
  /// -1 = unknown.  Unguarded instructions always commit.
  int guard_decide(const std::vector<AbsVal>& state,
                   const IrInst& inst) const {
    if (inst.guard == ir::kNoVReg) return 1;
    const Interval g = concretize(state[inst.guard]);
    if (g.is_empty()) return -1;
    if (g.is_zero()) return inst.guard_negate ? 1 : 0;
    if (g.excludes_zero()) return inst.guard_negate ? 0 : 1;
    return -1;
  }

  /// Optional per-instruction hooks for the final fact-collection pass.
  struct FactSink {
    IntervalAnalysis* ia = nullptr;
    int block = 0;
  };

  /// Apply one instruction to the state.  Shared by the fixed point and
  /// the fact pass so both see identical transfer semantics.
  void transfer_inst(std::vector<AbsVal>& state, const IrInst& inst,
                     int inst_index, FactSink* sink) const {
    const int commits = guard_decide(state, inst);
    if (sink != nullptr && inst.guard != ir::kNoVReg && commits >= 0) {
      sink->ia->guard_facts.push_back(
          {sink->block, inst_index, commits == 1});
    }
    if (commits == 0) return;

    if (sink != nullptr && commits == 1 && ir::is_load(inst.op)) {
      check_oob(state, inst, inst_index, sink, /*size=*/
                inst.op == IrOp::LoadW ? 4u : 1u);
    }
    if (sink != nullptr && commits == 1 && ir::is_store(inst.op)) {
      check_oob(state, inst, inst_index, sink,
                inst.op == IrOp::StoreW ? 4u : 1u);
    }

    const VReg d = def_of(inst);
    if (d == ir::kNoVReg) return;
    AbsVal nv = eval_inst(state, inst);
    if (commits < 0) {
      // Unknown guard: the write may or may not land.
      join(nv, state[d], /*widen=*/false);
    }
    state[d] = nv;
  }

  void check_oob(const std::vector<AbsVal>& state, const IrInst& inst,
                 int inst_index, FactSink* sink, unsigned size) const {
    const AbsVal a = value_of(state, inst.a);
    const AbsVal b = value_of(state, inst.b);
    AbsVal addr;
    if (a.kind == AbsVal::Kind::GlobalPtr &&
        b.kind == AbsVal::Kind::Number) {
      const Interval off = alu_interval(IrOp::Add, a.iv, b.iv);
      addr = off.is_full() ? AbsVal::top()
                           : AbsVal::global_ptr(a.global, off);
    } else if (b.kind == AbsVal::Kind::GlobalPtr &&
               a.kind == AbsVal::Kind::Number) {
      const Interval off = alu_interval(IrOp::Add, b.iv, a.iv);
      addr = off.is_full() ? AbsVal::top()
                           : AbsVal::global_ptr(b.global, off);
    } else {
      return;
    }
    if (addr.kind != AbsVal::Kind::GlobalPtr || addr.iv.is_empty()) return;
    const std::uint32_t limit =
        module.globals[addr.global].size_words * 4;
    // Provably out of bounds on every execution: even the smallest
    // offset overruns, or every offset is negative.
    const bool oob =
        addr.iv.lo + size > limit || addr.iv.hi < 0;
    if (oob) {
      sink->ia->oob.push_back({sink->block, inst_index, addr.global,
                               addr.iv.lo, addr.iv.hi, size, limit});
    }
  }

  /// CondBr edge refinement: constrain the condition vreg and, when the
  /// condition was computed by an unguarded compare in the same block
  /// whose operands are still current, the compare operands too.
  /// Returns false if the refined state is infeasible (empty interval).
  bool refine_edge(std::vector<AbsVal>& state, const ir::BasicBlock& block,
                   const std::vector<int>& last_def, bool then_edge) const {
    const IrInst& term = block.insts.back();
    if (!term.a.is_reg()) return true;
    const VReg c = term.a.reg;

    // The condition itself: != 0 on the then edge, == 0 on the else.
    if (state[c].kind == AbsVal::Kind::Number) {
      Interval iv = state[c].iv;
      if (then_edge) {
        if (iv.lo == 0) iv.lo = 1;
        if (iv.hi == 0) iv.hi = -1;  // was [l,0] with l<0
      } else {
        iv.lo = std::max<std::int64_t>(iv.lo, 0);
        iv.hi = std::min<std::int64_t>(iv.hi, 0);
      }
      if (iv.is_empty()) return false;
      state[c].iv = iv;
    }

    const int di = last_def[c];
    if (di < 0) return true;
    const IrInst& cmp = block.insts[di];
    if (!ir::is_cmp(cmp.op) || cmp.guard != ir::kNoVReg) return true;
    // Operands must not have been redefined after the compare.
    const auto current = [&](const ir::Value& v) {
      return !v.is_reg() || last_def[v.reg] < di;
    };
    if (!current(cmp.a) || !current(cmp.b)) return true;

    return apply_cmp_constraint(state, cmp, then_edge);
  }

  /// Constrain the operands of `cmp` by "cmp is `truth`".  Only plain
  /// number operands are refined; returns false on infeasibility.
  bool apply_cmp_constraint(std::vector<AbsVal>& state, const IrInst& cmp,
                            bool truth) const {
    IrOp op = cmp.op;
    // Normalise to a true condition by flipping the predicate.
    if (!truth) {
      switch (op) {
        case IrOp::CmpEq: op = IrOp::CmpNe; break;
        case IrOp::CmpNe: op = IrOp::CmpEq; break;
        case IrOp::CmpLt: op = IrOp::CmpGe; break;
        case IrOp::CmpLe: op = IrOp::CmpGt; break;
        case IrOp::CmpGt: op = IrOp::CmpLe; break;
        case IrOp::CmpGe: op = IrOp::CmpLt; break;
        case IrOp::CmpLtU: op = IrOp::CmpGeU; break;
        case IrOp::CmpLeU: op = IrOp::CmpGtU; break;
        case IrOp::CmpGtU: op = IrOp::CmpLeU; break;
        case IrOp::CmpGeU: op = IrOp::CmpLtU; break;
        default: return true;
      }
    }
    // Normalise a > b to b < a, a >= b to b <= a.
    const ir::Value* va = &cmp.a;
    const ir::Value* vb = &cmp.b;
    switch (op) {
      case IrOp::CmpGt: op = IrOp::CmpLt; std::swap(va, vb); break;
      case IrOp::CmpGe: op = IrOp::CmpLe; std::swap(va, vb); break;
      case IrOp::CmpGtU: op = IrOp::CmpLtU; std::swap(va, vb); break;
      case IrOp::CmpGeU: op = IrOp::CmpLeU; std::swap(va, vb); break;
      default: break;
    }

    const auto get = [&](const ir::Value& v) -> Interval {
      if (v.is_imm()) return Interval::constant(v.imm);
      if (v.is_reg() && state[v.reg].kind == AbsVal::Kind::Number) {
        return state[v.reg].iv;
      }
      return Interval::full();
    };
    const auto put = [&](const ir::Value& v, const Interval& iv) {
      if (v.is_reg() && state[v.reg].kind == AbsVal::Kind::Number) {
        state[v.reg].iv = iv;
      }
    };

    Interval a = get(*va);
    Interval b = get(*vb);
    switch (op) {
      case IrOp::CmpEq: {
        const Interval m{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
        if (m.is_empty()) return false;
        put(*va, m);
        put(*vb, m);
        return true;
      }
      case IrOp::CmpNe:
        if (a.is_const() && b.is_const() && a.lo == b.lo) return false;
        return true;
      case IrOp::CmpLt:
        a.hi = std::min(a.hi, b.hi - 1);
        b.lo = std::max(b.lo, a.lo + 1);
        if (a.is_empty() || b.is_empty()) return false;
        put(*va, a);
        put(*vb, b);
        return true;
      case IrOp::CmpLe:
        a.hi = std::min(a.hi, b.hi);
        b.lo = std::max(b.lo, a.lo);
        if (a.is_empty() || b.is_empty()) return false;
        put(*va, a);
        put(*vb, b);
        return true;
      case IrOp::CmpLtU:
      case IrOp::CmpLeU:
        // Unsigned: refine only when both ranges sit in the
        // non-negative half, where the orders coincide.
        if (a.lo >= 0 && b.lo >= 0) {
          const std::int64_t slack = op == IrOp::CmpLtU ? 1 : 0;
          a.hi = std::min(a.hi, b.hi - slack);
          b.lo = std::max(b.lo, a.lo + slack);
          if (a.is_empty() || b.is_empty()) return false;
          put(*va, a);
          put(*vb, b);
        }
        return true;
      default:
        return true;
    }
  }

  void run() {
    const int nb = cfg.num_blocks();
    const std::size_t nv = fn.next_vreg;
    ia.in.assign(nb, std::vector<AbsVal>(nv, AbsVal::bottom()));
    ia.out.assign(nb, std::vector<AbsVal>(nv, AbsVal::bottom()));
    ia.executable.assign(nb, false);
    ia.edge_executable.resize(nb);
    for (int b = 0; b < nb; ++b) {
      ia.edge_executable[b].assign(cfg.succs[b].size(), false);
    }
    ia.global_addr_ = global_addr;
    if (nb == 0) return;

    // Entry state: params unknown, every other vreg starts as the
    // implicit zero the interpreter gives uninitialised registers.
    std::vector<AbsVal> entry(nv, AbsVal::constant(0));
    for (VReg p : fn.params) entry[p] = AbsVal::top();

    std::vector<int> visits(nb, 0);
    std::deque<int> worklist;
    std::vector<bool> queued(nb, false);
    const auto enqueue = [&](int b) {
      if (!queued[b]) {
        queued[b] = true;
        worklist.push_back(b);
      }
    };

    ia.executable[0] = true;
    ia.in[0] = entry;
    enqueue(0);

    const auto propagate = [&](int from, int edge, int to,
                               std::vector<AbsVal>&& state) {
      ia.edge_executable[from][edge] = true;
      if (!ia.executable[to]) {
        ia.executable[to] = true;
        ia.in[to] = std::move(state);
        ++visits[to];
        enqueue(to);
        return;
      }
      const bool widen = visits[to] > kWidenAfterVisits;
      bool changed = false;
      for (std::size_t v = 0; v < nv; ++v) {
        changed |= join(ia.in[to][v], state[v], widen);
      }
      if (changed) {
        ++visits[to];
        enqueue(to);
      }
    };

    while (!worklist.empty()) {
      const int b = worklist.front();
      worklist.pop_front();
      queued[b] = false;

      std::vector<AbsVal> state = ia.in[b];
      std::vector<int> last_def(nv, -1);
      const auto& insts = fn.blocks[b].insts;
      for (std::size_t i = 0; i + 1 < insts.size(); ++i) {
        transfer_inst(state, insts[i], static_cast<int>(i), nullptr);
        // Record any def, guarded or not: refine_edge only trusts a
        // last_def that is an unguarded compare, and a guarded def in
        // between conservatively invalidates operand currency.
        const VReg d = def_of(insts[i]);
        if (d != ir::kNoVReg) last_def[d] = static_cast<int>(i);
      }
      ia.out[b] = state;

      const IrInst& term = insts.back();
      if (term.op == IrOp::Br) {
        propagate(b, 0, cfg.succs[b][0], std::vector<AbsVal>(state));
      } else if (term.op == IrOp::CondBr) {
        const Interval c = concretize(value_of(state, term.a));
        const bool both = !c.excludes_zero() && !c.is_zero();
        const bool then_on = both || c.excludes_zero();
        const bool else_on = both || c.is_zero();
        if (term.block_then == term.block_else) {
          // successors() deduplicates the edge.
          propagate(b, 0, cfg.succs[b][0], std::vector<AbsVal>(state));
        } else {
          if (then_on) {
            std::vector<AbsVal> s = state;
            if (refine_edge(s, fn.blocks[b], last_def, /*then=*/true)) {
              propagate(b, 0, term.block_then, std::move(s));
            }
          }
          if (else_on) {
            std::vector<AbsVal> s = state;
            if (refine_edge(s, fn.blocks[b], last_def, /*then=*/false)) {
              propagate(b, 1, term.block_else, std::move(s));
            }
          }
        }
      }
      // Ret: no successors.
    }

    // Final fact pass with the settled states: statically-decided
    // guards and branches, and provably out-of-bounds global accesses.
    for (int b = 0; b < nb; ++b) {
      if (!ia.executable[b]) continue;
      std::vector<AbsVal> state = ia.in[b];
      FactSink sink{&ia, b};
      const auto& insts = fn.blocks[b].insts;
      for (std::size_t i = 0; i + 1 < insts.size(); ++i) {
        transfer_inst(state, insts[i], static_cast<int>(i), &sink);
      }
      const IrInst& term = insts.back();
      if (term.op == IrOp::CondBr && term.block_then != term.block_else) {
        const Interval c = concretize(value_of(state, term.a));
        if (c.excludes_zero()) {
          ia.branch_facts.push_back({b, true});
        } else if (c.is_zero()) {
          ia.branch_facts.push_back({b, false});
        }
      }
    }
  }
};

}  // namespace

Interval IntervalAnalysis::concretize(const AbsVal& v) const {
  if (v.kind != AbsVal::Kind::GlobalPtr) return v.iv;
  const std::int64_t base = global_addr_[v.global];
  const std::int64_t lo = base + v.iv.lo;
  const std::int64_t hi = base + v.iv.hi;
  if (lo < INT32_MIN || hi > INT32_MAX) return Interval::full();
  return {lo, hi};
}

std::string IntervalAnalysis::to_string(const ir::Function& fn) const {
  std::string out = cat("intervals @", fn.name, "\n");
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (!executable[b]) {
      out += cat("  .b", b, ": unreachable\n");
      continue;
    }
    out += cat("  .b", b, ":");
    bool any = false;
    for (std::size_t v = 1; v < in[b].size(); ++v) {
      const AbsVal& av = in[b][v];
      if (av.is_bottom()) continue;
      if (av.kind == AbsVal::Kind::Number && av.iv.is_full()) continue;
      any = true;
      if (av.kind == AbsVal::Kind::GlobalPtr) {
        out += cat(" %", v, "=@", av.global, "+[", av.iv.lo, ",", av.iv.hi,
                   "]");
      } else if (av.iv.is_const()) {
        out += cat(" %", v, "=", av.iv.lo);
      } else {
        out += cat(" %", v, "=[", av.iv.lo, ",", av.iv.hi, "]");
      }
    }
    if (!any) out += " top";
    out += "\n";
  }
  return out;
}

IntervalAnalysis compute_intervals(const ir::Module& module,
                                   const ir::Function& fn, const Cfg& cfg) {
  IntervalAnalysis ia;
  // The facts depend on the globals' addresses, never on the memory
  // size, so the whole 32-bit address space bounds the layout: a module
  // that fits some memory is analysed (and linted) like any other.
  Analyzer an{module, fn, cfg,
              ir::global_addresses(module, std::uint64_t{1} << 32), ia};
  an.run();
  return ia;
}

}  // namespace cepic::analysis
