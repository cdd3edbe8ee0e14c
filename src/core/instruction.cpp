#include "core/instruction.hpp"

#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic {

namespace {

std::string operand_str(const Operand& o, SrcSpec spec) {
  if (o.is_lit()) return cat('#', o.lit);
  if (o.is_reg()) return cat(reg_prefix(reg_file(spec)), o.reg);
  return "<none>";
}

}  // namespace

unsigned reg_file_size(const ProcessorConfig& cfg, RegFile file) {
  switch (file) {
    case RegFile::Gpr: return cfg.num_gprs;
    case RegFile::Pred: return cfg.num_preds;
    case RegFile::Btr: return cfg.num_btrs;
    case RegFile::None: break;
  }
  return 0;
}

bool implements(const ProcessorConfig& cfg, Op op) {
  switch (op) {
    case Op::MUL: return cfg.alu.has_mul;
    case Op::DIV:
    case Op::REM: return cfg.alu.has_div;
    case Op::SHL:
    case Op::SHRA:
    case Op::SHRL: return cfg.alu.has_shift;
    case Op::MIN:
    case Op::MAX:
    case Op::ABS: return cfg.alu.has_minmax;
    default: return !is_custom(op) || custom_slot(op) < cfg.custom_ops.size();
  }
}

std::string to_string(const Instruction& inst, std::string_view src1_text,
                      std::string_view src2_text) {
  const OpInfo& info = inst.info();
  std::string s;
  if (inst.pred != 0) s += cat("(p", inst.pred, ") ");
  s += info.name;
  bool first = true;
  auto comma = [&] {
    s += first ? " " : ", ";
    first = false;
  };
  if (info.dest1 != RegFile::None) {
    comma();
    s += cat(reg_prefix(info.dest1), inst.dest1);
  }
  if (info.dest2 != RegFile::None) {
    comma();
    s += cat(reg_prefix(info.dest2), inst.dest2);
  }
  if (info.src1 != SrcSpec::None) {
    comma();
    s += src1_text.empty() ? operand_str(inst.src1, info.src1)
                           : std::string(src1_text);
  }
  if (info.src2 != SrcSpec::None) {
    comma();
    s += src2_text.empty() ? operand_str(inst.src2, info.src2)
                           : std::string(src2_text);
  }
  return s;
}

std::vector<Defect> check_instruction(const Instruction& inst,
                                      const ProcessorConfig& cfg) {
  const OpInfo& info = inst.info();
  std::vector<Defect> out;
  const auto defect = [&](DefectKind kind, std::string message) {
    out.push_back({kind, std::move(message)});
  };
  const auto range = [&](const char* slot, const char* sep, RegFile file,
                         std::uint32_t reg) {
    const unsigned n = reg_file_size(cfg, file);
    if (reg >= n) {
      defect(DefectKind::RegRange, cat(slot, sep, reg_prefix(file), reg,
                                       " exceeds the ", n, "-register file"));
    }
  };
  const auto dest = [&](const char* slot, RegFile file, std::uint32_t reg) {
    if (file != RegFile::None) {
      range(slot, ": ", file, reg);
    } else if (reg != 0) {
      defect(DefectKind::Shape, cat(slot, " operand not allowed"));
    }
  };
  const auto src = [&](const char* slot, const Operand& o, SrcSpec spec) {
    switch (spec) {
      case SrcSpec::None:
        if (o.kind != Operand::Kind::None) {
          defect(DefectKind::Shape, cat(slot, ": operand not allowed"));
        }
        return;
      case SrcSpec::Gpr:
      case SrcSpec::Pred:
      case SrcSpec::Btr:
        if (!o.is_reg()) {
          defect(DefectKind::Shape, cat(slot, ": register operand required"));
          return;
        }
        [[fallthrough]];
      case SrcSpec::GprOrLit:
        if (o.is_reg()) {
          range(slot, ": ", reg_file(spec), o.reg);
          return;
        }
        if (!o.is_lit()) {
          defect(DefectKind::Shape, cat(slot, ": operand required"));
          return;
        }
        break;
      case SrcSpec::LitOnly:
        if (!o.is_lit()) {
          defect(DefectKind::Shape, cat(slot, ": literal operand required"));
          return;
        }
        break;
    }
    const unsigned bits = cfg.format().src_bits;
    const bool zext = info.literal_zero_extends;
    if (zext ? !fits_unsigned(static_cast<std::uint32_t>(o.lit), bits)
             : !fits_signed(o.lit, bits)) {
      defect(DefectKind::LitWidth,
             cat(slot, ": literal ", o.lit, " does not fit the ", bits,
                 "-bit SRC field (", zext ? "zero" : "sign", "-extended)"));
    }
  };

  if (!implements(cfg, inst.op)) {
    defect(DefectKind::Unimplemented,
           is_custom(inst.op)
               ? cat("`", info.name, "`: custom slot ", custom_slot(inst.op),
                     " is not bound in this configuration")
               : cat("`", info.name,
                     "` is not implemented on this customisation"));
  }
  dest("dest1", info.dest1, inst.dest1);
  dest("dest2", info.dest2, inst.dest2);
  src("src1", inst.src1, info.src1);
  src("src2", inst.src2, info.src2);
  range("guard predicate", " ", RegFile::Pred, inst.pred);
  const unsigned regs = count_reg_reads(inst) + count_reg_writes(inst);
  if (regs > cfg.max_regs_per_instr) {
    defect(DefectKind::RegCap,
           cat("instruction uses ", regs,
               " register operands; the encoding caps it at ",
               cfg.max_regs_per_instr));
  }
  return out;
}

std::string validate_instruction(const Instruction& inst,
                                 const ProcessorConfig& cfg) {
  std::vector<Defect> defects = check_instruction(inst, cfg);
  return defects.empty() ? std::string() : std::move(defects.front().message);
}

unsigned count_reg_reads(const Instruction& inst) {
  const OpInfo& info = inst.info();
  unsigned n = 0;
  if (inst.src1.is_reg()) ++n;
  if (inst.src2.is_reg()) ++n;
  if (info.dest1_is_source) ++n;  // store value operand
  return n;
}

unsigned count_reg_writes(const Instruction& inst) {
  const OpInfo& info = inst.info();
  unsigned n = 0;
  if (info.writes_dest1()) ++n;
  if (info.dest2 != RegFile::None) ++n;
  return n;
}

}  // namespace cepic
