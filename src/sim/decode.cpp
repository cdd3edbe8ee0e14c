#include "sim/decode.hpp"

#include <algorithm>
#include <array>

#include "core/eval.hpp"

namespace cepic {

namespace {

ExecKind exec_kind(const OpInfo& info) {
  switch (info.fu) {
    case FuClass::Alu: return ExecKind::Alu;
    case FuClass::Cmpu: return ExecKind::Cmpp;
    case FuClass::Lsu:
      switch (info.op) {
        case Op::OUT: return ExecKind::Out;
        case Op::LDW: return ExecKind::LdW;
        case Op::LDWS: return ExecKind::LdWS;
        case Op::LDB: return ExecKind::LdB;
        case Op::LDBU: return ExecKind::LdBU;
        case Op::STW: return ExecKind::StW;
        case Op::STB: return ExecKind::StB;
        default: return ExecKind::Unsupported;
      }
    case FuClass::Bru:
      switch (info.op) {
        case Op::PBR: return ExecKind::Pbr;
        case Op::BRU: return ExecKind::Bru;
        case Op::BRCT: return ExecKind::Brct;
        case Op::BRCF: return ExecKind::Brcf;
        case Op::BRL: return ExecKind::Brl;
        case Op::BRR: return ExecKind::Brr;
        case Op::HALT: return ExecKind::Halt;
        default: return ExecKind::Unsupported;
      }
    case FuClass::None: break;
  }
  return ExecKind::Unsupported;
}

void push_unique(std::vector<std::uint32_t>& v, std::uint32_t x) {
  if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
}

/// Decode one source operand. Register indices are in range: the
/// simulator refuses out-of-range programs before decoding.
DecodedSrc decode_src(const Operand& o, SrcSpec spec,
                      const ProcessorConfig& cfg) {
  DecodedSrc out;
  if (o.is_lit()) {
    out.kind = SrcKind::Lit;
    out.value =
        mask_to_width(static_cast<std::uint32_t>(o.lit), cfg.datapath_width);
    return out;
  }
  if (!o.is_reg()) return out;
  switch (reg_file(spec)) {
    case RegFile::Gpr: out.kind = SrcKind::Gpr; break;
    case RegFile::Pred: out.kind = SrcKind::Pred; break;
    case RegFile::Btr: out.kind = SrcKind::Btr; break;
    case RegFile::None:
      // A register operand in a literal/unused slot reads as zero on
      // the interpretive path too.
      return out;
  }
  out.reg = o.reg;
  return out;
}

/// One bundle's register lists while it is decoded; reused for every
/// bundle, then appended to DecodedProgram::regs.
struct RegLists {
  std::vector<std::uint32_t> gpr;
  std::vector<std::uint32_t> pred;
  std::vector<std::uint32_t> btr;
  std::vector<std::uint32_t> ports;
};

/// Per-bundle lengths of ops, sb_gpr, sb_pred, sb_btr and port_reads.
using Counts = std::array<std::uint32_t, 5>;

/// Decode one bundle: appends its ops to `out.ops` and its register
/// lists to `out.regs`, sets `bundle`'s scalar fields and returns the
/// lengths its spans get once the arrays are final.
Counts decode_bundle(std::span<const Instruction> code, const Program& program,
                     const Mdes& mdes, DecodedProgram& out,
                     DecodedBundle& bundle, RegLists& lists) {
  const ProcessorConfig& cfg = program.config;
  lists.gpr.clear();
  lists.pred.clear();
  lists.btr.clear();
  lists.ports.clear();
  const std::size_t first_op = out.ops.size();
  std::uint8_t pending_nops = 0;

  for (const Instruction& inst : code) {
    if (inst.is_nop()) {
      ++pending_nops;
      continue;
    }
    const OpInfo& info = inst.info();
    DecodedOp op;
    op.nops_before = pending_nops;
    pending_nops = 0;
    op.op = inst.op;
    op.info = &info;
    op.pred = inst.pred;
    op.dest1 = inst.dest1;
    op.dest2 = inst.dest2;
    op.has_dest2 = info.dest2 != RegFile::None;
    op.latency = mdes.latency(inst.op);
    op.kind = mdes.op_supported(inst.op) ? exec_kind(info)
                                         : ExecKind::Unsupported;

    op.src1 = decode_src(inst.src1, info.src1, cfg);
    op.src2 = decode_src(inst.src2, info.src2, cfg);
    // The interpretive path feeds PBR's raw (unmasked) literal to the
    // BTR write; keep that exact value.
    if (op.kind == ExecKind::Pbr) {
      op.src1.value = static_cast<std::uint32_t>(inst.src1.lit);
    }

    // ---- Stage-1 static facts: scoreboard sources and §3.2 ports. ----
    if (inst.pred != 0) push_unique(lists.pred, inst.pred);
    const auto note_src = [&](const DecodedSrc& s) {
      switch (s.kind) {
        case SrcKind::Gpr:
          if (s.reg != 0) {
            push_unique(lists.gpr, s.reg);
            lists.ports.push_back(s.reg);
          }
          break;
        case SrcKind::Pred:
          if (s.reg != 0) push_unique(lists.pred, s.reg);
          break;
        case SrcKind::Btr:
          push_unique(lists.btr, s.reg);
          break;
        case SrcKind::Zero:
        case SrcKind::Lit:
          break;
      }
    };
    note_src(op.src1);
    note_src(op.src2);
    if (info.dest1_is_source && inst.dest1 != 0) {
      push_unique(lists.gpr, inst.dest1);
      lists.ports.push_back(inst.dest1);
    }
    if (info.writes_dest1() && info.dest1 == RegFile::Gpr &&
        inst.dest1 != 0) {
      ++bundle.write_ports;
    }

    out.ops.push_back(op);
  }
  bundle.nops_trailing = pending_nops;
  for (const std::vector<std::uint32_t>* list :
       {&lists.gpr, &lists.pred, &lists.btr, &lists.ports}) {
    out.regs.insert(out.regs.end(), list->begin(), list->end());
  }
  const auto len = [](std::size_t n) { return static_cast<std::uint32_t>(n); };
  return {len(out.ops.size() - first_op), len(lists.gpr.size()),
          len(lists.pred.size()), len(lists.btr.size()),
          len(lists.ports.size())};
}

}  // namespace

DecodedProgram decode_program(const Program& program, const Mdes& mdes) {
  DecodedProgram out;
  const std::size_t bundles = program.bundle_count();
  out.bundles.resize(bundles);
  std::vector<Counts> counts(bundles);
  RegLists lists;
  for (std::uint32_t pc = 0; pc < bundles; ++pc) {
    counts[pc] = decode_bundle(program.bundle(pc), program, mdes, out,
                               out.bundles[pc], lists);
  }
  // The arrays are final: point every bundle's spans into them.
  const DecodedOp* op = out.ops.data();
  const std::uint32_t* reg = out.regs.data();
  const auto take = [&reg](std::uint32_t n) {
    const std::span<const std::uint32_t> list(reg, n);
    reg += n;
    return list;
  };
  for (std::size_t pc = 0; pc < bundles; ++pc) {
    DecodedBundle& b = out.bundles[pc];
    const Counts& c = counts[pc];
    b.ops = {op, c[0]};
    op += c[0];
    b.sb_gpr = take(c[1]);
    b.sb_pred = take(c[2]);
    b.sb_btr = take(c[3]);
    b.port_reads = take(c[4]);
  }
  return out;
}

}  // namespace cepic
