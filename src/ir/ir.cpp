#include "ir/ir.hpp"

#include "core/program.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::ir {

bool is_terminator(IrOp op) {
  return op == IrOp::Br || op == IrOp::CondBr || op == IrOp::Ret;
}

bool is_cmp(IrOp op) {
  return op >= IrOp::CmpEq && op <= IrOp::CmpGeU;
}

bool is_load(IrOp op) {
  return op == IrOp::LoadW || op == IrOp::LoadB || op == IrOp::LoadBU;
}

bool is_store(IrOp op) {
  return op == IrOp::StoreW || op == IrOp::StoreB;
}

bool is_binary_alu(IrOp op) {
  return op >= IrOp::Add && op <= IrOp::Max;
}

bool has_dst(const IrInst& inst) {
  switch (inst.op) {
    case IrOp::StoreW:
    case IrOp::StoreB:
    case IrOp::Out:
    case IrOp::Br:
    case IrOp::CondBr:
    case IrOp::Ret:
      return false;
    case IrOp::Call:
      return inst.dst != kNoVReg;
    default:
      return true;
  }
}

bool has_side_effects(const IrInst& inst) {
  switch (inst.op) {
    case IrOp::StoreW:
    case IrOp::StoreB:
    case IrOp::Out:
    case IrOp::Call:  // conservatively: any call
    case IrOp::Br:
    case IrOp::CondBr:
    case IrOp::Ret:
      return true;
    default:
      return false;
  }
}

const char* ir_op_name(IrOp op) {
  switch (op) {
    case IrOp::Add: return "add";
    case IrOp::Sub: return "sub";
    case IrOp::Mul: return "mul";
    case IrOp::Div: return "div";
    case IrOp::Rem: return "rem";
    case IrOp::And: return "and";
    case IrOp::Or: return "or";
    case IrOp::Xor: return "xor";
    case IrOp::Shl: return "shl";
    case IrOp::Shra: return "shra";
    case IrOp::Shrl: return "shrl";
    case IrOp::Min: return "min";
    case IrOp::Max: return "max";
    case IrOp::Mov: return "mov";
    case IrOp::CmpEq: return "cmp.eq";
    case IrOp::CmpNe: return "cmp.ne";
    case IrOp::CmpLt: return "cmp.lt";
    case IrOp::CmpLe: return "cmp.le";
    case IrOp::CmpGt: return "cmp.gt";
    case IrOp::CmpGe: return "cmp.ge";
    case IrOp::CmpLtU: return "cmp.ltu";
    case IrOp::CmpLeU: return "cmp.leu";
    case IrOp::CmpGtU: return "cmp.gtu";
    case IrOp::CmpGeU: return "cmp.geu";
    case IrOp::LoadW: return "load.w";
    case IrOp::LoadB: return "load.b";
    case IrOp::LoadBU: return "load.bu";
    case IrOp::StoreW: return "store.w";
    case IrOp::StoreB: return "store.b";
    case IrOp::GlobalAddr: return "gaddr";
    case IrOp::FrameAddr: return "faddr";
    case IrOp::Call: return "call";
    case IrOp::Out: return "out";
    case IrOp::Br: return "br";
    case IrOp::CondBr: return "condbr";
    case IrOp::Ret: return "ret";
  }
  return "?";
}

Function* Module::find_function(std::string_view name) {
  for (Function& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const Function* Module::find_function(std::string_view name) const {
  for (const Function& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

int Module::global_index(std::string_view name) const {
  for (std::size_t i = 0; i < globals.size(); ++i) {
    if (globals[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::uint32_t> global_addresses(const Module& module,
                                            std::uint64_t mem_top) {
  std::vector<std::uint32_t> addr;
  std::uint64_t end = kDataBase;
  for (const Global& g : module.globals) {
    addr.push_back(static_cast<std::uint32_t>(end));
    end += std::uint64_t{g.size_words} * 4;
    if (end > mem_top) {
      throw CompileError(cat("global `", g.name, "` (", g.size_words,
                             " words) does not fit in the ", mem_top,
                             "-byte memory"),
                         0, 0);
    }
  }
  return addr;
}

DataLayout layout_globals(const Module& module, std::uint64_t mem_top) {
  DataLayout layout;
  layout.global_addr = global_addresses(module, mem_top);
  if (!module.globals.empty()) {
    layout.image.assign(layout.global_addr.back() - kDataBase +
                            std::size_t{module.globals.back().size_words} * 4,
                        0);
  }
  for (std::size_t gi = 0; gi < module.globals.size(); ++gi) {
    const Global& g = module.globals[gi];
    CEPIC_CHECK(g.init_words.size() <= g.size_words,
                "global initialiser larger than global");
    std::uint32_t offset = layout.global_addr[gi] - kDataBase;
    for (std::uint32_t w : g.init_words) {
      // Big-endian, matching DataMemory.
      layout.image[offset] = static_cast<std::uint8_t>(w >> 24);
      layout.image[offset + 1] = static_cast<std::uint8_t>(w >> 16);
      layout.image[offset + 2] = static_cast<std::uint8_t>(w >> 8);
      layout.image[offset + 3] = static_cast<std::uint8_t>(w);
      offset += 4;
    }
  }
  return layout;
}

}  // namespace cepic::ir
