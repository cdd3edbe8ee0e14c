#include "asmtool/assembler.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>

#include "mdes/mdes.hpp"
#include "obs/obs.hpp"
#include "support/text.hpp"

namespace cepic::asmtool {

namespace {

/// Does a parsed number fit a 32-bit field? Literals and data words may
/// be written signed or unsigned (`#-1`, `#0xFFFFFFFF`).
bool fits_word(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::uint32_t>::max();
}

class Parser {
public:
  Listing run(std::string_view source) {
    for (std::string_view raw : split(source, '\n')) {
      ++line_;
      const std::string_view line = trim(raw.substr(0, raw.find("//")));
      if (line.empty()) continue;
      if (line[0] == '.') {
        parse_directive(line);
      } else {
        parse_code_line(line);
      }
    }
    if (!open_bundle_.empty()) {
      error("dangling operations at end of file (missing `;;`)");
    }
    return std::move(out_);
  }

private:
  [[noreturn]] void error(const std::string& msg) const {
    throw AsmError(msg, line_);
  }

  void parse_directive(std::string_view line) {
    const auto words = split_ws(line);
    const std::string_view d = words[0];
    if (d == ".text" || d == ".data") {
      in_text_ = d == ".text";
      return;
    }
    if (d == ".entry") {
      if (words.size() != 2) error(".entry needs one label");
      out_.entry = std::string(words[1]);
      out_.entry_line = line_;
      return;
    }
    if (d == ".global") {
      if (words.size() < 3) error(".global needs a name and a size");
      Listing::Global g;
      g.name = std::string(words[1]);
      g.line = line_;
      std::int64_t size = 0;
      if (!parse_int(words[2], size) || size <= 0 || !fits_word(size)) {
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
          if (!fits_word(w)) {
            error(cat("word `", words[i], "` does not fit in 32 bits"));
          }
          g.init.push_back(static_cast<std::uint32_t>(w));
        }
      }
      out_.globals.push_back(std::move(g));
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
      out_.labels.push_back(
          {std::string(before),
           static_cast<std::uint32_t>(out_.bundles.size()), {}, line_});
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
      out_.bundles.push_back(std::move(open_bundle_));
      open_bundle_.clear();
      start = stop + 2;
    }
  }

  // ---- operand / op parsing ----

  /// A register operand `rN`/`pN`/`bN` of `file` for `slot`.
  std::uint32_t reg(std::string_view text, RegFile file, const char* slot) {
    if (text[0] == '#' || text[0] == '@') {
      error(cat(slot, ": expected a register"));
    }
    std::int64_t n = 0;
    if (std::string_view("rpb").find(text[0]) == std::string_view::npos ||
        !parse_int(text.substr(1), n) || n < 0) {
      error(cat("cannot parse operand `", std::string(text), "`"));
    }
    if (!fits_word(n)) {
      error(cat("register `", std::string(text), "` out of range"));
    }
    if (text[0] != reg_prefix(file)) {
      error(cat(slot, ": expected `", std::string(1, reg_prefix(file)),
                "` register, got `", std::string(1, text[0]), "`"));
    }
    return static_cast<std::uint32_t>(n);
  }

  Listing::Op parse_op(std::string_view text) {
    Listing::Op out;
    out.line = line_;

    // Optional guard: (pN)
    if (text[0] == '(') {
      const auto close = text.find(')');
      if (close == std::string_view::npos) error("unterminated guard");
      const std::string_view guard = trim(text.substr(1, close - 1));
      if (guard.size() < 2 || guard[0] != 'p') error("bad guard predicate");
      std::int64_t p = 0;
      if (!parse_int(guard.substr(1), p) || p < 0) error("bad guard predicate");
      if (!fits_word(p)) {
        error(cat("guard predicate `", std::string(guard), "` out of range"));
      }
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
    const std::vector<std::string_view> ops =
        text.empty() ? std::vector<std::string_view>{} : split(text, ',');
    std::size_t idx = 0;
    const auto next = [&](const char* slot) {
      if (idx >= ops.size()) error(cat("missing ", slot, " operand"));
      const std::string_view operand = trim(ops[idx++]);
      if (operand.empty()) error("empty operand");
      return operand;
    };
    if (info.dest1 != RegFile::None) {
      out.inst.dest1 = reg(next("dest1"), info.dest1, "dest1");
    }
    if (info.dest2 != RegFile::None) {
      out.inst.dest2 = reg(next("dest2"), info.dest2, "dest2");
    }
    const auto src = [&](SrcSpec spec, std::string& sym_out,
                         const char* slot) -> Operand {
      if (spec == SrcSpec::None) return Operand::none();
      const std::string_view operand = next(slot);
      if (spec == SrcSpec::LitOnly || spec == SrcSpec::GprOrLit) {
        if (operand[0] == '#') {
          std::int64_t v = 0;
          if (!parse_int(operand.substr(1), v)) {
            error(cat("bad literal `", std::string(operand), "`"));
          }
          if (!fits_word(v)) {
            error(cat("literal `", std::string(operand),
                      "` does not fit in 32 bits"));
          }
          return Operand::imm(static_cast<std::int32_t>(v));
        }
        if (operand[0] == '@') {
          sym_out = std::string(operand.substr(1));
          if (sym_out.empty()) error("empty symbol reference");
          return Operand::imm(0);  // patched by encode()
        }
        if (spec == SrcSpec::LitOnly) {
          error(cat(slot, ": expected a literal or @symbol"));
        }
      }
      return Operand::r(reg(operand, reg_file(spec), slot));
    };
    out.inst.src1 = src(info.src1, out.src1_sym, "src1");
    out.inst.src2 = src(info.src2, out.src2_sym, "src2");
    if (idx != ops.size()) {
      error(cat("too many operands for `", mnemonic, "`"));
    }
    return out;
  }

  int line_ = 0;
  bool in_text_ = true;
  Listing out_;
  std::vector<Listing::Op> open_bundle_;
};

}  // namespace

Listing parse(std::string_view source) { return Parser().run(source); }

Program encode(const Listing& listing, const ProcessorConfig& config,
               std::uint64_t mem_top) {
  obs::Span span("encode", "asm");
  span.arg("bundles", static_cast<std::uint64_t>(listing.bundles.size()));
  config.validate();
  const Mdes mdes(config);
  Program p;
  p.config = config;

  // Data layout: globals in declaration order from kDataBase (the same
  // rule ir::layout_globals uses), big-endian words.
  for (const Listing::Global& g : listing.globals) {
    const std::uint64_t addr = kDataBase + p.data.size();
    if (g.init.size() > g.size_words) {
      throw AsmError("too many initialiser words", g.line);
    }
    const std::uint64_t end = addr + std::uint64_t{g.size_words} * 4;
    if (end > std::uint64_t{1} << 32) {
      throw AsmError(cat("global `", g.name,
                         "` does not fit the 32-bit data address space"),
                     g.line);
    }
    if (end > mem_top) {
      throw AsmError(cat("global `", g.name, "` (", g.size_words,
                         " words) does not fit in the ", mem_top,
                         "-byte memory"),
                     g.line);
    }
    if (!p.data_symbols.emplace(g.name, addr).second) {
      throw AsmError(cat("duplicate global `", g.name, "`"), g.line);
    }
    for (std::uint32_t w : g.init) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        p.data.push_back(static_cast<std::uint8_t>(w >> shift));
      }
    }
    p.data.resize(end - kDataBase);
  }

  const std::size_t bundles = listing.bundles.size();
  for (const Listing::Label& l : listing.labels) {
    if (!p.code_symbols.emplace(l.name, l.bundle).second) {
      throw AsmError(cat("duplicate label `", l.name, "`"), l.line);
    }
    if (l.bundle > bundles) {
      throw AsmError(cat("label `", l.name, "` past end of code"), l.line);
    }
  }
  if (!listing.entry.empty()) {
    const auto it = p.code_symbols.find(listing.entry);
    if (it == p.code_symbols.end()) {
      throw AsmError(cat("undefined entry label `", listing.entry, "`"),
                     listing.entry_line);
    }
    p.entry_bundle = it->second;
  }

  const auto resolve = [&](const std::string& sym, bool is_branch_target,
                           int line) -> std::int32_t {
    if (!is_branch_target) {
      if (auto it = p.data_symbols.find(sym); it != p.data_symbols.end()) {
        return static_cast<std::int32_t>(it->second);
      }
    }
    if (auto it = p.code_symbols.find(sym); it != p.code_symbols.end()) {
      return static_cast<std::int32_t>(it->second);
    }
    throw AsmError(cat(is_branch_target ? "undefined label `"
                                        : "undefined symbol `",
                       sym, "`"),
                   line);
  };

  const std::size_t width = config.issue_width;
  p.code.reserve(bundles * width);
  for (const std::vector<Listing::Op>& bundle : listing.bundles) {
    if (bundle.size() > width) {
      throw AsmError(cat("MultiOp has ", bundle.size(),
                         " operations; issue width is ", width),
                     bundle[width].line);
    }
    unsigned used[5] = {0, 0, 0, 0, 0};  // by FuClass
    for (const Listing::Op& op : bundle) {
      // Functional-unit constraints from the machine description.
      const FuClass fu = op.inst.info().fu;
      if (fu != FuClass::None &&
          ++used[static_cast<std::size_t>(fu)] > mdes.units(fu)) {
        throw AsmError(cat("MultiOp oversubscribes ", fu_name(fu),
                           " units (", mdes.units(fu), " available)"),
                       op.line);
      }
      Instruction inst = op.inst;
      if (!op.src1_sym.empty()) {
        inst.src1 = Operand::imm(
            resolve(op.src1_sym, inst.op == Op::PBR, op.line));
      }
      if (!op.src2_sym.empty()) {
        inst.src2 = Operand::imm(resolve(op.src2_sym, false, op.line));
      }
      if (const std::string err = validate_instruction(inst, config);
          !err.empty()) {
        throw AsmError(
            cat("invalid instruction `", to_string(inst), "`: ", err),
            op.line);
      }
      // Resolved branch targets must land inside the program.
      if (inst.op == Op::PBR &&
          static_cast<std::uint32_t>(inst.src1.lit) >= bundles) {
        throw AsmError(cat("branch target ", inst.src1.lit,
                           " outside program (", bundles, " bundles)"),
                       op.line);
      }
      p.code.push_back(inst);
    }
    p.code.resize(p.code.size() + width - bundle.size(), Instruction::nop());
  }
  return p;
}

std::string to_text(const Listing& listing) {
  std::string out;
  if (!listing.comment.empty()) out += cat("// ", listing.comment, "\n");
  if (!listing.globals.empty()) {
    out += ".data\n";
    for (const Listing::Global& g : listing.globals) {
      out += cat(".global ", g.name, " ", g.size_words);
      if (!g.init.empty()) {
        out += " =";
        for (std::uint32_t w : g.init) out += cat(" 0x", std::hex, w, std::dec);
      }
      out += "\n";
    }
  }
  out += ".text\n";
  if (!listing.entry.empty()) out += cat(".entry ", listing.entry, "\n");

  auto label = listing.labels.begin();
  const auto labels_up_to = [&](std::size_t bundle) {
    for (; label != listing.labels.end() && label->bundle <= bundle; ++label) {
      if (!label->comment.empty()) out += cat("\n// ", label->comment, "\n");
      out += cat(label->name, ":\n");
    }
  };
  for (std::size_t b = 0; b < listing.bundles.size(); ++b) {
    labels_up_to(b);
    const char* sep = "";
    for (const Listing::Op& op : listing.bundles[b]) {
      out += std::exchange(sep, " ; ");
      out += to_string(op.inst, op.src1_sym.empty() ? "" : "@" + op.src1_sym,
                       op.src2_sym.empty() ? "" : "@" + op.src2_sym);
    }
    out += " ;;\n";
  }
  labels_up_to(std::numeric_limits<std::size_t>::max());  // past the end
  return out;
}

Program assemble(std::string_view source, const ProcessorConfig& config,
                 std::uint64_t mem_top) {
  obs::Span span("assemble", "asm");
  span.arg("source_bytes", static_cast<std::uint64_t>(source.size()));
  return encode(parse(source), config, mem_top);
}

std::string disassemble(const Program& program) {
  Listing listing;
  listing.comment = "disassembly";

  // Symbols sorted by address reproduce the original layout order; each
  // global runs to the next symbol, its initialiser to the last non-zero
  // word. Only bytes inside the data image are read: a decoded CEPX may
  // carry symbols that point outside it.
  std::map<std::uint32_t, std::string> by_addr;
  for (const auto& [name, addr] : program.data_symbols) by_addr[addr] = name;
  const std::uint64_t end_addr = kDataBase + program.data.size();
  for (auto it = by_addr.begin(); it != by_addr.end(); ++it) {
    const auto next = std::next(it);
    const std::uint64_t stop = next != by_addr.end() ? next->first : end_addr;
    Listing::Global g;
    g.name = it->second;
    g.size_words = static_cast<std::uint32_t>(
        stop > it->first ? (stop - it->first) / 4 : 0);
    for (std::uint64_t a = it->first;
         a >= kDataBase && a + 4 <= stop && a + 4 <= end_addr; a += 4) {
      const std::uint8_t* b = &program.data[a - kDataBase];
      g.init.push_back(std::uint32_t{b[0]} << 24 | std::uint32_t{b[1]} << 16 |
                       std::uint32_t{b[2]} << 8 | b[3]);
    }
    while (!g.init.empty() && g.init.back() == 0) g.init.pop_back();
    listing.globals.push_back(std::move(g));
  }

  for (const auto& [name, addr] : program.code_symbols) {
    listing.labels.push_back({name, addr, {}, 0});
    if (listing.entry.empty() && addr == program.entry_bundle) {
      listing.entry = name;
    }
  }
  std::stable_sort(listing.labels.begin(), listing.labels.end(),
                   [](const Listing::Label& a, const Listing::Label& b) {
                     return a.bundle < b.bundle;
                   });

  listing.bundles.resize(program.bundle_count());
  for (std::uint32_t b = 0; b < program.bundle_count(); ++b) {
    for (const Instruction& inst : program.bundle(b)) {
      if (!inst.is_nop()) listing.bundles[b].push_back({inst, {}, {}, 0});
    }
    if (listing.bundles[b].empty()) {
      listing.bundles[b].push_back({Instruction::nop(), {}, {}, 0});
    }
  }
  return to_text(listing);
}

}  // namespace cepic::asmtool
