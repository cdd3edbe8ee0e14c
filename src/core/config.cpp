#include "core/config.hpp"

#include <algorithm>

#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic {

InstructionFormat ProcessorConfig::format() const {
  InstructionFormat f;
  f.opcode_bits = InstructionFormat::kOpIdBits + 3;  // opid + 2 flags + spare
  f.dest_bits = std::max({index_bits(num_gprs), index_bits(num_preds),
                          index_bits(num_btrs), 6u});
  f.pred_bits = std::max(index_bits(num_preds), 5u);
  // The SRC fields must hold a register index or a literal; 16 bits is
  // the paper's default literal width.
  f.src_bits = std::max({16u, f.dest_bits});
  return f;
}

void ProcessorConfig::validate() const {
  auto require = [](bool ok, const std::string& msg) {
    if (!ok) throw ConfigError(msg);
  };
  require(num_alus >= 1 && num_alus <= 16,
          cat("num_alus must be 1..16, got ", num_alus));
  require(num_gprs >= 8 && num_gprs <= 1024,
          cat("num_gprs must be 8..1024, got ", num_gprs));
  require(num_preds >= 2 && num_preds <= 256,
          cat("num_preds must be 2..256, got ", num_preds));
  require(num_btrs >= 1 && num_btrs <= 256,
          cat("num_btrs must be 1..256, got ", num_btrs));
  require(issue_width >= 1 && issue_width <= 4,
          cat("issue_width must be 1..4 (memory bandwidth limit), got ",
              issue_width));
  require(datapath_width >= 8 && datapath_width <= 64,
          cat("datapath_width must be 8..64, got ", datapath_width));
  require(max_regs_per_instr >= 3 && max_regs_per_instr <= 4,
          cat("max_regs_per_instr must be 3..4, got ", max_regs_per_instr));
  require(reg_port_budget >= 2 && reg_port_budget <= 64,
          cat("reg_port_budget must be 2..64, got ", reg_port_budget));
  require(load_latency >= 1 && load_latency <= 8,
          cat("load_latency must be 1..8, got ", load_latency));
  require(pipeline_stages >= 2 && pipeline_stages <= 4,
          cat("pipeline_stages must be 2..4, got ", pipeline_stages));
  require(custom_ops.size() <= 4,
          cat("at most 4 custom ops supported, got ", custom_ops.size()));

  const InstructionFormat f = format();
  require(f.total_bits() <= 64,
          cat("derived instruction format needs ", f.total_bits(),
              " bits, exceeding the 64-bit container; reduce register-file "
              "sizes or redesign the format"));
}

namespace {

bool parse_bool(std::string_view v, bool& out) {
  const std::string s = to_lower(v);
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

ProcessorConfig ProcessorConfig::from_text(std::string_view text) {
  ProcessorConfig cfg;
  int line_no = 0;
  for (std::string_view raw_line : split(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError(
          cat("config line ", line_no, ": expected `key = value`: ", line));
    }
    const std::string key = to_lower(trim(line.substr(0, eq)));
    const std::string_view value = trim(line.substr(eq + 1));

    auto as_uint = [&](unsigned& field) {
      std::int64_t v = 0;
      if (!parse_int(value, v) || v < 0 || v > 0xFFFFFFFFLL) {
        throw ConfigError(
            cat("config line ", line_no, ": bad integer for ", key));
      }
      field = static_cast<unsigned>(v);
    };
    auto as_bool = [&](bool& field) {
      if (!parse_bool(value, field)) {
        throw ConfigError(
            cat("config line ", line_no, ": bad boolean for ", key));
      }
    };

    if (key == "num_alus") {
      as_uint(cfg.num_alus);
    } else if (key == "num_gprs") {
      as_uint(cfg.num_gprs);
    } else if (key == "num_preds") {
      as_uint(cfg.num_preds);
    } else if (key == "num_btrs") {
      as_uint(cfg.num_btrs);
    } else if (key == "issue_width") {
      as_uint(cfg.issue_width);
    } else if (key == "datapath_width") {
      as_uint(cfg.datapath_width);
    } else if (key == "max_regs_per_instr") {
      as_uint(cfg.max_regs_per_instr);
    } else if (key == "reg_port_budget") {
      as_uint(cfg.reg_port_budget);
    } else if (key == "forwarding") {
      as_bool(cfg.forwarding);
    } else if (key == "unified_memory_contention") {
      as_bool(cfg.unified_memory_contention);
    } else if (key == "load_latency") {
      as_uint(cfg.load_latency);
    } else if (key == "pipeline_stages") {
      as_uint(cfg.pipeline_stages);
    } else if (key == "alu_has_mul") {
      as_bool(cfg.alu.has_mul);
    } else if (key == "alu_has_div") {
      as_bool(cfg.alu.has_div);
    } else if (key == "alu_has_shift") {
      as_bool(cfg.alu.has_shift);
    } else if (key == "alu_has_minmax") {
      as_bool(cfg.alu.has_minmax);
    } else if (key == "custom_ops") {
      cfg.custom_ops.clear();
      for (std::string_view name : split(value, ',')) {
        name = trim(name);
        if (!name.empty()) cfg.custom_ops.emplace_back(name);
      }
    } else {
      throw ConfigError(cat("config line ", line_no, ": unknown key `", key,
                            "`"));
    }
  }
  cfg.validate();
  return cfg;
}

std::uint64_t ProcessorConfig::stable_hash() const { return fnv1a64(to_text()); }

ProcessorConfig ProcessorConfig::codegen_slice() const {
  static const ProcessorConfig kDefaults;
  ProcessorConfig slice = *this;
  slice.pipeline_stages = kDefaults.pipeline_stages;
  slice.unified_memory_contention = kDefaults.unified_memory_contention;
  return slice;
}

std::string ProcessorConfig::summary() const {
  const ProcessorConfig def;
  std::string s = cat(num_alus, "alu/", issue_width, "iss/", reg_port_budget,
                      "port/", pipeline_stages, "stg");
  if (num_gprs != def.num_gprs) s += cat("/g", num_gprs);
  if (num_preds != def.num_preds) s += cat("/p", num_preds);
  if (num_btrs != def.num_btrs) s += cat("/b", num_btrs);
  if (datapath_width != def.datapath_width) s += cat("/w", datapath_width);
  if (max_regs_per_instr != def.max_regs_per_instr) {
    s += cat("/m", max_regs_per_instr);
  }
  if (load_latency != def.load_latency) s += cat("/l", load_latency);
  if (!forwarding) s += "/nofwd";
  if (unified_memory_contention) s += "/umc";
  if (!(alu == def.alu)) s += "/trim";
  if (!custom_ops.empty()) s += cat("/c", custom_ops.size());
  return s;
}

std::string ProcessorConfig::to_text() const {
  std::string custom;
  for (std::size_t i = 0; i < custom_ops.size(); ++i) {
    if (i) custom += ",";
    custom += custom_ops[i];
  }
  return cat(
      "# CEPIC processor configuration (paper §3.3 parameters)\n",
      "num_alus = ", num_alus, "\n",
      "num_gprs = ", num_gprs, "\n",
      "num_preds = ", num_preds, "\n",
      "num_btrs = ", num_btrs, "\n",
      "issue_width = ", issue_width, "\n",
      "datapath_width = ", datapath_width, "\n",
      "max_regs_per_instr = ", max_regs_per_instr, "\n",
      "reg_port_budget = ", reg_port_budget, "\n",
      "forwarding = ", forwarding, "\n",
      "unified_memory_contention = ", unified_memory_contention, "\n",
      "load_latency = ", load_latency, "\n",
      "pipeline_stages = ", pipeline_stages, "\n",
      "alu_has_mul = ", alu.has_mul, "\n",
      "alu_has_div = ", alu.has_div, "\n",
      "alu_has_shift = ", alu.has_shift, "\n",
      "alu_has_minmax = ", alu.has_minmax, "\n",
      "custom_ops = ", custom, "\n");
}

}  // namespace cepic
