#include "asmtool/assembler.hpp"

#include <map>
#include <optional>
#include <vector>

#include "core/encoding.hpp"
#include "mdes/mdes.hpp"
#include "obs/obs.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::asmtool {

namespace {

struct PendingOp {
  Instruction inst;
  std::string src1_sym;  ///< unresolved @name for src1
  std::string src2_sym;
  int line = 0;
};

struct PendingGlobal {
  std::string name;
  std::uint32_t size_words = 0;
  std::vector<std::uint32_t> init;
};

class Assembler {
public:
  Assembler(std::string_view source, const ProcessorConfig& config)
      : source_(source), config_(config), mdes_(config) {
    config_.validate();
  }

  Program run() {
    parse();
    return resolve_and_encode();
  }

private:
  [[noreturn]] void error(const std::string& msg) const {
    throw AsmError(msg, line_);
  }

  // ---------- pass 1: parse into pending bundles ----------

  void parse() {
    for (std::string_view raw : split(source_, '\n')) {
      ++line_;
      std::string_view line = raw;
      if (auto slashes = line.find("//"); slashes != std::string_view::npos) {
        line = line.substr(0, slashes);
      }
      line = trim(line);
      if (line.empty()) continue;
      if (line[0] == '.') {
        parse_directive(line);
        continue;
      }
      parse_code_line(line);
    }
    if (!open_bundle_.empty()) {
      error("dangling operations at end of file (missing `;;`)");
    }
  }

  void parse_directive(std::string_view line) {
    const auto words = split_ws(line);
    const std::string_view d = words[0];
    if (d == ".text") {
      in_text_ = true;
      return;
    }
    if (d == ".data") {
      in_text_ = false;
      return;
    }
    if (d == ".entry") {
      if (words.size() != 2) error(".entry needs one label");
      entry_label_ = std::string(words[1]);
      return;
    }
    if (d == ".global") {
      if (words.size() < 3) error(".global needs a name and a size");
      PendingGlobal g;
      g.name = std::string(words[1]);
      std::int64_t size = 0;
      if (!parse_int(words[2], size) || size <= 0) {
        error("bad global size");
      }
      g.size_words = static_cast<std::uint32_t>(size);
      std::size_t i = 3;
      if (i < words.size()) {
        if (words[i] != "=") error("expected `=` before initialiser words");
        ++i;
        for (; i < words.size(); ++i) {
          std::int64_t w = 0;
          if (!parse_int(words[i], w)) error(cat("bad word `", words[i], "`"));
          g.init.push_back(static_cast<std::uint32_t>(w));
        }
      }
      if (g.init.size() > g.size_words) error("too many initialiser words");
      for (const PendingGlobal& prev : globals_) {
        if (prev.name == g.name) error(cat("duplicate global `", g.name, "`"));
      }
      globals_.push_back(std::move(g));
      return;
    }
    error(cat("unknown directive `", std::string(d), "`"));
  }

  void parse_code_line(std::string_view line) {
    if (!in_text_) error("code outside .text");
    // Labels: `name:` possibly several, possibly followed by ops.
    for (;;) {
      line = trim(line);
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) break;
      const std::string_view before = trim(line.substr(0, colon));
      if (before.empty() || before.find_first_of(" \t,;#@") !=
                                std::string_view::npos) {
        break;  // the ':' is not a label separator (shouldn't happen)
      }
      if (!open_bundle_.empty()) {
        error("label in the middle of a MultiOp (missing `;;`?)");
      }
      if (labels_.count(std::string(before)) != 0) {
        error(cat("duplicate label `", std::string(before), "`"));
      }
      labels_[std::string(before)] =
          static_cast<std::uint32_t>(bundles_.size());
      line = line.substr(colon + 1);
    }
    line = trim(line);
    if (line.empty()) return;

    // Split on `;;` bundle stops, then on `;` within.
    std::size_t start = 0;
    while (start <= line.size()) {
      const auto stop = line.find(";;", start);
      const std::string_view chunk =
          line.substr(start, stop == std::string_view::npos
                                 ? std::string_view::npos
                                 : stop - start);
      for (std::string_view op_text : split(chunk, ';')) {
        op_text = trim(op_text);
        if (!op_text.empty()) open_bundle_.push_back(parse_op(op_text));
      }
      if (stop == std::string_view::npos) break;
      close_bundle();
      start = stop + 2;
    }
  }

  void close_bundle() {
    if (open_bundle_.size() > config_.issue_width) {
      error(cat("MultiOp has ", open_bundle_.size(),
                " operations; issue width is ", config_.issue_width));
    }
    // Functional-unit constraints from the machine description.
    unsigned used[5] = {0, 0, 0, 0, 0};
    for (const PendingOp& op : open_bundle_) {
      const FuClass fu = op.inst.info().fu;
      if (fu == FuClass::None) continue;
      if (++used[static_cast<std::size_t>(fu)] > mdes_.units(fu)) {
        error(cat("MultiOp oversubscribes ",
                  fu == FuClass::Alu ? "ALU"
                  : fu == FuClass::Cmpu ? "CMPU"
                  : fu == FuClass::Lsu ? "LSU" : "BRU",
                  " units (", mdes_.units(fu), " available)"));
      }
    }
    while (open_bundle_.size() < config_.issue_width) {
      PendingOp nop;
      nop.inst = Instruction::nop();
      nop.line = line_;
      open_bundle_.push_back(nop);
    }
    bundles_.push_back(std::move(open_bundle_));
    open_bundle_.clear();
  }

  // ---- operand / op parsing ----

  struct ParsedOperand {
    enum class Kind { Reg, Lit, Sym } kind;
    char reg_file = 'r';
    std::uint32_t reg = 0;
    std::int32_t lit = 0;
    std::string sym;
  };

  ParsedOperand parse_operand(std::string_view text) {
    text = trim(text);
    if (text.empty()) error("empty operand");
    ParsedOperand op{ParsedOperand::Kind::Reg, 'r', 0, 0, {}};
    if (text[0] == '#') {
      std::int64_t v = 0;
      if (!parse_int(text.substr(1), v)) {
        error(cat("bad literal `", std::string(text), "`"));
      }
      op.kind = ParsedOperand::Kind::Lit;
      op.lit = static_cast<std::int32_t>(v);
      return op;
    }
    if (text[0] == '@') {
      op.kind = ParsedOperand::Kind::Sym;
      op.sym = std::string(text.substr(1));
      if (op.sym.empty()) error("empty symbol reference");
      return op;
    }
    if (text[0] == 'r' || text[0] == 'p' || text[0] == 'b') {
      std::int64_t n = 0;
      if (parse_int(text.substr(1), n) && n >= 0) {
        op.kind = ParsedOperand::Kind::Reg;
        op.reg_file = text[0];
        op.reg = static_cast<std::uint32_t>(n);
        return op;
      }
    }
    error(cat("cannot parse operand `", std::string(text), "`"));
  }

  std::uint32_t expect_reg(const ParsedOperand& op, RegFile file,
                           const char* slot) {
    if (op.kind != ParsedOperand::Kind::Reg) {
      error(cat(slot, ": expected a register"));
    }
    if (op.reg_file != reg_prefix(file)) {
      error(cat(slot, ": expected `", std::string(1, reg_prefix(file)),
                "` register, got `", std::string(1, op.reg_file), "`"));
    }
    return op.reg;
  }

  PendingOp parse_op(std::string_view text) {
    PendingOp out;
    out.line = line_;
    text = trim(text);

    // Optional guard: (pN)
    if (!text.empty() && text[0] == '(') {
      const auto close = text.find(')');
      if (close == std::string_view::npos) error("unterminated guard");
      const std::string_view guard = trim(text.substr(1, close - 1));
      if (guard.size() < 2 || guard[0] != 'p') error("bad guard predicate");
      std::int64_t p = 0;
      if (!parse_int(guard.substr(1), p) || p < 0) error("bad guard predicate");
      out.inst.pred = static_cast<std::uint32_t>(p);
      text = trim(text.substr(close + 1));
    }

    // Mnemonic.
    const auto sp = text.find_first_of(" \t");
    const std::string mnemonic =
        to_lower(sp == std::string_view::npos ? text : text.substr(0, sp));
    const auto op = op_by_name(mnemonic);
    if (!op) error(cat("unknown operation `", mnemonic, "`"));
    out.inst.op = *op;
    const OpInfo& info = op_info(*op);
    text = sp == std::string_view::npos ? std::string_view{}
                                        : trim(text.substr(sp));

    // Operand list in to_string order: dest1, dest2, src1, src2.
    std::vector<ParsedOperand> ops;
    if (!text.empty()) {
      for (std::string_view piece : split(text, ',')) {
        ops.push_back(parse_operand(piece));
      }
    }
    std::size_t idx = 0;
    const auto next = [&](const char* slot) -> const ParsedOperand& {
      if (idx >= ops.size()) error(cat("missing ", slot, " operand"));
      return ops[idx++];
    };

    if (info.dest1 != RegFile::None) {
      out.inst.dest1 = expect_reg(next("dest1"), info.dest1, "dest1");
    }
    if (info.dest2 != RegFile::None) {
      out.inst.dest2 = expect_reg(next("dest2"), info.dest2, "dest2");
    }
    const auto src = [&](SrcSpec spec, std::string& sym_out,
                         const char* slot) -> Operand {
      switch (spec) {
        case SrcSpec::None:
          return Operand::none();
        case SrcSpec::Gpr:
          return Operand::r(expect_reg(next(slot), RegFile::Gpr, slot));
        case SrcSpec::Pred:
          return Operand::r(expect_reg(next(slot), RegFile::Pred, slot));
        case SrcSpec::Btr:
          return Operand::r(expect_reg(next(slot), RegFile::Btr, slot));
        case SrcSpec::LitOnly:
        case SrcSpec::GprOrLit: {
          const ParsedOperand& p = next(slot);
          if (p.kind == ParsedOperand::Kind::Lit) return Operand::imm(p.lit);
          if (p.kind == ParsedOperand::Kind::Sym) {
            sym_out = p.sym;
            return Operand::imm(0);  // patched at resolution
          }
          if (spec == SrcSpec::LitOnly) {
            error(cat(slot, ": expected a literal or @symbol"));
          }
          return Operand::r(expect_reg(p, RegFile::Gpr, slot));
        }
      }
      return Operand::none();
    };
    out.inst.src1 = src(info.src1, out.src1_sym, "src1");
    out.inst.src2 = src(info.src2, out.src2_sym, "src2");
    if (idx != ops.size()) {
      error(cat("too many operands for `", mnemonic, "`"));
    }
    return out;
  }

  // ---------- pass 2: resolve symbols, validate, encode ----------

  Program resolve_and_encode() {
    Program p;
    p.config = config_;

    // Data layout: globals in declaration order from kDataBase (the
    // same rule ir::layout_globals uses).
    std::uint32_t addr = kDataBase;
    for (const PendingGlobal& g : globals_) {
      p.data_symbols[g.name] = addr;
      addr += g.size_words * 4;
    }
    p.data.assign(addr - kDataBase, 0);
    for (const PendingGlobal& g : globals_) {
      std::uint32_t off = p.data_symbols[g.name] - kDataBase;
      for (std::uint32_t w : g.init) {
        p.data[off] = static_cast<std::uint8_t>(w >> 24);
        p.data[off + 1] = static_cast<std::uint8_t>(w >> 16);
        p.data[off + 2] = static_cast<std::uint8_t>(w >> 8);
        p.data[off + 3] = static_cast<std::uint8_t>(w);
        off += 4;
      }
    }

    const auto resolve = [&](const std::string& sym, bool is_branch_target,
                             int line) -> std::int32_t {
      if (is_branch_target) {
        if (auto it = labels_.find(sym); it != labels_.end()) {
          return static_cast<std::int32_t>(it->second);
        }
        throw AsmError(cat("undefined label `", sym, "`"), line);
      }
      if (auto it = p.data_symbols.find(sym); it != p.data_symbols.end()) {
        return static_cast<std::int32_t>(it->second);
      }
      if (auto it = labels_.find(sym); it != labels_.end()) {
        return static_cast<std::int32_t>(it->second);
      }
      throw AsmError(cat("undefined symbol `", sym, "`"), line);
    };

    for (std::vector<PendingOp>& bundle : bundles_) {
      for (PendingOp& op : bundle) {
        if (!op.src1_sym.empty()) {
          op.inst.src1 = Operand::imm(
              resolve(op.src1_sym, op.inst.op == Op::PBR, op.line));
        }
        if (!op.src2_sym.empty()) {
          op.inst.src2 = Operand::imm(resolve(op.src2_sym, false, op.line));
        }
        if (const std::string err = validate_instruction(op.inst, config_);
            !err.empty()) {
          throw AsmError(cat("invalid instruction `", to_string(op.inst),
                             "`: ", err),
                         op.line);
        }
        p.code.push_back(op.inst);
      }
    }

    for (const auto& [name, bundle_addr] : labels_) {
      if (bundle_addr > p.bundle_count()) {
        throw AsmError(cat("label `", name, "` past end of code"), line_);
      }
      p.code_symbols[name] = bundle_addr;
    }

    if (!entry_label_.empty()) {
      const auto it = labels_.find(entry_label_);
      if (it == labels_.end()) {
        throw AsmError(cat("undefined entry label `", entry_label_, "`"),
                       line_);
      }
      p.entry_bundle = it->second;
    }

    // Resolved branch targets must land inside the program.
    for (const Instruction& inst : p.code) {
      if (inst.op == Op::PBR &&
          static_cast<std::uint32_t>(inst.src1.lit) >= p.bundle_count()) {
        throw AsmError(cat("branch target ", inst.src1.lit,
                           " outside program (", p.bundle_count(),
                           " bundles)"),
                       0);
      }
    }
    return p;
  }

  std::string_view source_;
  ProcessorConfig config_;
  Mdes mdes_;

  int line_ = 0;
  bool in_text_ = true;
  std::string entry_label_;
  std::vector<PendingGlobal> globals_;
  std::map<std::string, std::uint32_t> labels_;
  std::vector<PendingOp> open_bundle_;
  std::vector<std::vector<PendingOp>> bundles_;
};

}  // namespace

Program assemble(std::string_view source, const ProcessorConfig& config) {
  obs::Span span("assemble", "asm");
  span.arg("source_bytes", static_cast<std::uint64_t>(source.size()));
  return Assembler(source, config).run();
}

Program assemble_with_config_text(std::string_view source,
                                  std::string_view config_text) {
  return assemble(source, ProcessorConfig::from_text(config_text));
}

}  // namespace cepic::asmtool
