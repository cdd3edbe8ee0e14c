// Register allocation for EPIC: the EPIC adapter of the shared linear
// scan in analysis/linear_scan.hpp. What is EPIC's own: three register
// files (GPRs from r12 up, predicates from p1, all BTRs), of which only
// the GPRs spill; BRL is the call; a spill store runs under the guard
// of the instruction that wrote the value. Exhausting the predicate or
// BTR file is reported as a configuration problem (the paper's
// parameters trade register-file size against area, and the compiler
// must tell the designer when a customisation is too small).
#include "analysis/linear_scan.hpp"
#include "backend/backend.hpp"
#include "support/text.hpp"

namespace cepic::backend {

namespace {

using analysis::RegRef;

// Register-file indices in the allocator: GPRs first, so GPR spilling
// settles before the predicate and BTR files are scanned.
constexpr unsigned kGprFile = 0;
constexpr unsigned kPredFile = 1;
constexpr unsigned kBtrFile = 2;

unsigned file_of(RegFile f) {
  return f == RegFile::Gpr ? kGprFile : f == RegFile::Pred ? kPredFile
                                                           : kBtrFile;
}

struct EpicTarget {
  using Inst = MInst;
  static constexpr unsigned kFrameImmBits = 16;

  const MFunc& fn;

  /// Sources, then dest1, dest2 and the guard predicate.
  template <typename Fn>
  void for_each_ref(MInst& mi, Fn&& visit) const {
    Instruction& inst = mi.inst;
    const OpInfo& info = inst.info();
    const bool guarded = inst.pred != 0;
    if (inst.src1.is_reg() && reg_file(info.src1) != RegFile::None) {
      visit(RegRef{file_of(reg_file(info.src1)), &inst.src1.reg});
    }
    if (inst.src2.is_reg() && reg_file(info.src2) != RegFile::None) {
      visit(RegRef{file_of(reg_file(info.src2)), &inst.src2.reg});
    }
    if (info.dest1_is_source) {
      visit(RegRef{kGprFile, &inst.dest1});
    } else if (info.dest1 != RegFile::None) {
      visit(RegRef{file_of(info.dest1), &inst.dest1, true, guarded});
    }
    if (info.dest2 != RegFile::None) {
      visit(RegRef{file_of(info.dest2), &inst.dest2, true, guarded});
    }
    if (inst.pred != 0) visit(RegRef{kPredFile, &inst.pred});
  }

  bool is_call(const MInst& mi) const { return mi.inst.op == Op::BRL; }

  MInst reload(std::uint32_t temp, std::int32_t offset) const {
    MInst ld;
    ld.inst = Instruction::make(Op::LDW, temp, Operand::r(CallConv::kSp),
                                Operand::imm(offset));
    return ld;
  }

  MInst spill(std::uint32_t temp, std::int32_t offset, const MInst& def) const {
    MInst st;
    st.inst = Instruction::make(Op::STW, temp, Operand::r(CallConv::kSp),
                                Operand::imm(offset), def.inst.pred);
    return st;
  }

  void patch_frame(MInst& mi, std::int32_t total) const {
    if (mi.frame_sign != 0) mi.inst.src2 = Operand::imm(mi.frame_sign * total);
  }

  std::string no_convergence() const {
    return cat("register allocation did not converge in @", fn.name);
  }
};

std::string exhausted(const char* what, const std::string& fn_name) {
  return cat("out of ", what, " registers in @", fn_name,
             "; increase the register-file size in the configuration");
}

std::vector<std::uint32_t> regs_from(std::uint32_t first, std::uint32_t end) {
  std::vector<std::uint32_t> regs;
  for (std::uint32_t r = first; r < end; ++r) regs.push_back(r);
  return regs;
}

}  // namespace

void allocate_registers(MFunc& fn, const ProcessorConfig& config) {
  if (config.num_gprs <= CallConv::first_allocatable() + 1) {
    throw Error(cat("cannot allocate @", fn.name, ": configuration has only ",
                    config.num_gprs,
                    " GPRs; the CEPIC ABI reserves r0-r11, so at least ",
                    CallConv::first_allocatable() + 2, " are required"));
  }
  const std::vector<analysis::RegFileSpec> files = {
      {regs_from(CallConv::first_allocatable(), config.num_gprs),
       &fn.num_vgpr},
      {regs_from(1, config.num_preds), &fn.num_vpred,
       [](const std::string& name) { return exhausted("predicate", name); }},
      {regs_from(0, config.num_btrs), &fn.num_vbtr,
       [](const std::string& name) {
         return exhausted("branch-target", name);
       }},
  };
  analysis::LinearScan(fn, EpicTarget{fn}, files).run();
}

}  // namespace cepic::backend
