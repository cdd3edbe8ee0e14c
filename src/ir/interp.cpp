#include "ir/interp.hpp"

#include "core/eval.hpp"
#include "core/program.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::ir {

namespace {

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

}  // namespace

Interpreter::Interpreter(const Module& module, InterpOptions options)
    : module_(module),
      options_(options),
      layout_(layout_globals(module, options.mem_size)),
      mem_(options.mem_size) {
  mem_.load_image(kDataBase, layout_.image);
  sp_ = static_cast<std::uint32_t>(mem_.size());
}

InterpResult Interpreter::run(std::string_view entry,
                              std::span<const std::uint32_t> args) {
  const Function* fn = module_.find_function(entry);
  if (fn == nullptr) {
    throw SimError(cat("interp: no function @", std::string(entry)));
  }
  steps_ = 0;
  output_.clear();
  InterpResult result;
  result.ret = call(*fn, {args.begin(), args.end()}, 0);
  result.output = output_;
  result.steps = steps_;
  return result;
}

std::uint32_t Interpreter::call(const Function& fn,
                                const std::vector<std::uint32_t>& args,
                                unsigned depth) {
  if (depth > options_.max_call_depth) {
    throw SimError(cat("interp: call depth exceeded in @", fn.name));
  }
  if (args.size() != fn.params.size()) {
    throw SimError(cat("interp: @", fn.name, " expects ", fn.params.size(),
                       " args, got ", args.size()));
  }
  if (sp_ < fn.frame_bytes + kDataBase) {
    throw SimError("interp: stack overflow");
  }
  sp_ -= fn.frame_bytes;
  const std::uint32_t frame_base = sp_;

  std::vector<std::uint32_t> regs(fn.next_vreg, 0);
  for (std::size_t i = 0; i < args.size(); ++i) regs[fn.params[i]] = args[i];

  const auto value = [&](const Value& v) -> std::uint32_t {
    if (v.is_imm()) return static_cast<std::uint32_t>(v.imm);
    if (v.is_reg()) return regs[v.reg];
    CEPIC_CHECK(false, "reading a missing operand");
  };

  std::uint32_t ret = 0;
  int bi = 0;
  std::size_t ii = 0;
  if (observer_ != nullptr) observer_->on_block_entry(fn, bi, regs);
  for (;;) {
    if (++steps_ > options_.max_steps) {
      throw SimError("interp: step limit exceeded — runaway program?");
    }
    const IrInst& inst = fn.blocks[bi].insts[ii];

    if (inst.guard != kNoVReg) {
      const bool g = (regs[inst.guard] != 0) != inst.guard_negate;
      if (observer_ != nullptr) {
        observer_->on_guard(fn, bi, static_cast<int>(ii), g);
      }
      if (!g) {
        ++ii;
        continue;
      }
    }

    switch (inst.op) {
      case IrOp::Mov:
        regs[inst.dst] = value(inst.a);
        break;
      case IrOp::LoadW:
        regs[inst.dst] = mem_.read_word(value(inst.a) + value(inst.b));
        break;
      case IrOp::LoadB:
        regs[inst.dst] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(
                mem_.read_byte(value(inst.a) + value(inst.b)))));
        break;
      case IrOp::LoadBU:
        regs[inst.dst] = mem_.read_byte(value(inst.a) + value(inst.b));
        break;
      case IrOp::StoreW:
        mem_.write_word(value(inst.a) + value(inst.b), value(inst.c));
        break;
      case IrOp::StoreB:
        mem_.write_byte(value(inst.a) + value(inst.b),
                        static_cast<std::uint8_t>(value(inst.c)));
        break;
      case IrOp::GlobalAddr:
        CEPIC_CHECK(inst.global_index >= 0 &&
                        inst.global_index <
                            static_cast<int>(layout_.global_addr.size()),
                    "global index");
        regs[inst.dst] = layout_.global_addr[inst.global_index];
        break;
      case IrOp::FrameAddr:
        regs[inst.dst] = frame_base + static_cast<std::uint32_t>(inst.a.imm);
        break;
      case IrOp::Call: {
        const Function* callee = module_.find_function(inst.callee);
        if (callee == nullptr) {
          throw SimError(cat("interp: unknown callee @", inst.callee));
        }
        std::vector<std::uint32_t> call_args;
        call_args.reserve(inst.args.size());
        for (const Value& v : inst.args) call_args.push_back(value(v));
        const std::uint32_t r = call(*callee, call_args, depth + 1);
        if (inst.dst != kNoVReg) regs[inst.dst] = r;
        break;
      }
      case IrOp::Out:
        output_.push_back(value(inst.a));
        break;
      case IrOp::Br:
        bi = inst.block_then;
        ii = 0;
        if (observer_ != nullptr) observer_->on_block_entry(fn, bi, regs);
        continue;
      case IrOp::CondBr: {
        const bool then_taken = value(inst.a) != 0;
        if (observer_ != nullptr) observer_->on_branch(fn, bi, then_taken);
        bi = then_taken ? inst.block_then : inst.block_else;
        ii = 0;
        if (observer_ != nullptr) observer_->on_block_entry(fn, bi, regs);
        continue;
      }
      case IrOp::Ret:
        if (!inst.a.is_none()) ret = value(inst.a);
        sp_ += fn.frame_bytes;
        return ret;
      default:
        if (is_cmp(inst.op)) {
          regs[inst.dst] =
              eval_cmpp(cmp_op_of(inst.op), value(inst.a), value(inst.b), 32)
                  ? 1u
                  : 0u;
        } else {
          regs[inst.dst] =
              eval_alu(alu_op_of(inst.op), value(inst.a), value(inst.b), 32);
        }
        break;
    }
    ++ii;
  }
}

}  // namespace cepic::ir
