#include "mdes/mdes.hpp"

#include "core/instruction.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic {

const char* fu_name(FuClass fu) {
  switch (fu) {
    case FuClass::None: return "none";
    case FuClass::Alu: return "ALU";
    case FuClass::Cmpu: return "CMPU";
    case FuClass::Lsu: return "LSU";
    case FuClass::Bru: return "BRU";
  }
  return "?";
}

Mdes::Mdes(const ProcessorConfig& cfg, const CustomOpTable* custom) {
  cfg.validate();

  units_[static_cast<std::size_t>(FuClass::None)] = 0;
  units_[static_cast<std::size_t>(FuClass::Alu)] = cfg.num_alus;
  units_[static_cast<std::size_t>(FuClass::Cmpu)] = 1;
  units_[static_cast<std::size_t>(FuClass::Lsu)] = 1;
  units_[static_cast<std::size_t>(FuClass::Bru)] = 1;

  issue_width_ = cfg.issue_width;
  reg_port_budget_ = cfg.reg_port_budget;
  forwarding_ = cfg.forwarding;

  for (std::size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const OpInfo& info = op_info(op);
    unsigned lat = info.latency;
    if (info.is_load) lat = cfg.load_latency;
    const bool ok = !info.name.empty() && implements(cfg, op);
    if (ok && is_custom(op) && custom != nullptr &&
        custom->has(custom_slot(op))) {
      lat = custom->get(custom_slot(op)).latency;
    }
    latency_[i] = lat;
    supported_[i] = ok ? 1 : 0;
  }
}

unsigned Mdes::units(FuClass fu) const {
  return units_[static_cast<std::size_t>(fu)];
}

unsigned Mdes::latency(Op op) const {
  return latency_[static_cast<std::size_t>(op)];
}

bool Mdes::op_supported(Op op) const {
  return supported_[static_cast<std::size_t>(op)] != 0;
}

std::string Mdes::to_text() const {
  std::string out;
  out += "// CEPIC machine description (HMDES-lite)\n";
  out += "SECTION Resource {\n";
  for (FuClass fu : {FuClass::Alu, FuClass::Cmpu, FuClass::Lsu, FuClass::Bru}) {
    out += cat("  ", fu_name(fu), "(count ", units(fu), ");\n");
  }
  out += cat("  issue(width ", issue_width_, ");\n");
  out += cat("  regports(count ", reg_port_budget_, ");\n");
  out += cat("  forwarding(enabled ", forwarding_ ? 1 : 0, ");\n");
  out += "}\n";
  out += "SECTION Operation {\n";
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const OpInfo& info = op_info(op);
    if (info.name.empty() || op == Op::NOP) continue;
    if (!op_supported(op)) continue;
    out += cat("  ", info.name, "(unit ", fu_name(info.fu), "; latency ",
               latency(op), ");\n");
  }
  out += "}\n";
  return out;
}

namespace {

// Parses "name(key1 v1; key2 v2)" entries inside SECTION blocks.
struct Entry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> kv;
};

std::optional<Entry> parse_entry(std::string_view line, int line_no) {
  line = trim(line);
  if (line.empty()) return std::nullopt;
  const auto open = line.find('(');
  const auto close = line.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    throw ConfigError(cat("mdes line ", line_no, ": malformed entry"));
  }
  Entry e;
  e.name = std::string(trim(line.substr(0, open)));
  for (std::string_view part :
       split(line.substr(open + 1, close - open - 1), ';')) {
    part = trim(part);
    if (part.empty()) continue;
    const auto ws = part.find(' ');
    if (ws == std::string_view::npos) {
      throw ConfigError(cat("mdes line ", line_no, ": expected `key value`"));
    }
    e.kv.emplace_back(std::string(trim(part.substr(0, ws))),
                      std::string(trim(part.substr(ws + 1))));
  }
  return e;
}

FuClass fu_by_name(std::string_view name, int line_no) {
  if (name == "ALU") return FuClass::Alu;
  if (name == "CMPU") return FuClass::Cmpu;
  if (name == "LSU") return FuClass::Lsu;
  if (name == "BRU") return FuClass::Bru;
  throw ConfigError(cat("mdes line ", line_no, ": unknown unit `", name, "`"));
}

unsigned to_uint(const std::string& v, int line_no) {
  std::int64_t x = 0;
  if (!parse_int(v, x) || x < 0 || x > 0xFFFFFFFFLL) {
    throw ConfigError(cat("mdes line ", line_no, ": bad integer `", v, "`"));
  }
  return static_cast<unsigned>(x);
}

/// The value of a single-valued Resource entry such as `issue(width 4)`.
unsigned resource_value(const Entry& e, int line_no) {
  if (e.kv.empty()) {
    throw ConfigError(
        cat("mdes line ", line_no, ": `", e.name, "` needs a value"));
  }
  return to_uint(e.kv.front().second, line_no);
}

}  // namespace

Mdes Mdes::from_text(std::string_view text) {
  Mdes m;
  m.units_.fill(0);
  m.latency_.fill(1);
  m.supported_.fill(0);

  enum class Section { None, Resource, Operation };
  Section section = Section::None;
  int line_no = 0;
  for (std::string_view raw : split(text, '\n')) {
    ++line_no;
    std::string_view line = raw;
    if (auto c = line.find("//"); c != std::string_view::npos) {
      line = line.substr(0, c);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (starts_with(line, "SECTION")) {
      const std::string_view name = trim(line.substr(7));
      if (starts_with(name, "Resource")) {
        section = Section::Resource;
      } else if (starts_with(name, "Operation")) {
        section = Section::Operation;
      } else {
        throw ConfigError(cat("mdes line ", line_no, ": unknown section"));
      }
      continue;
    }
    if (line == "}") {
      section = Section::None;
      continue;
    }
    auto entry = parse_entry(line, line_no);
    if (!entry) continue;

    if (section == Section::Resource) {
      if (entry->name == "issue") {
        m.issue_width_ = resource_value(*entry, line_no);
      } else if (entry->name == "regports") {
        m.reg_port_budget_ = resource_value(*entry, line_no);
      } else if (entry->name == "forwarding") {
        m.forwarding_ = resource_value(*entry, line_no) != 0;
      } else {
        const FuClass fu = fu_by_name(entry->name, line_no);
        m.units_[static_cast<std::size_t>(fu)] =
            resource_value(*entry, line_no);
      }
    } else if (section == Section::Operation) {
      const auto op = op_by_name(entry->name);
      if (!op) {
        throw ConfigError(cat("mdes line ", line_no, ": unknown op `",
                              entry->name, "`"));
      }
      const std::size_t idx = static_cast<std::size_t>(*op);
      m.supported_[idx] = 1;
      for (const auto& [key, value] : entry->kv) {
        if (key == "latency") m.latency_[idx] = to_uint(value, line_no);
      }
    } else {
      throw ConfigError(cat("mdes line ", line_no, ": entry outside section"));
    }
  }
  return m;
}

}  // namespace cepic
