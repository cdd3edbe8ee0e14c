#include "explore/sweep.hpp"

#include <algorithm>
#include <cstdint>

#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::explore {

namespace {

/// One grid dimension: the config field it drives and its value list.
struct Dimension {
  unsigned ProcessorConfig::*uint_field = nullptr;
  bool ProcessorConfig::*bool_field = nullptr;
  std::vector<unsigned> values;
};

/// Map a grammar key (short alias or config-file name) onto the field it
/// sets. Returns false for unknown keys.
bool resolve_key(std::string_view key, Dimension& dim) {
  struct UintKey {
    std::string_view name;
    std::string_view alias;
    unsigned ProcessorConfig::*field;
  };
  static constexpr UintKey kUintKeys[] = {
      {"num_alus", "alus", &ProcessorConfig::num_alus},
      {"num_gprs", "gprs", &ProcessorConfig::num_gprs},
      {"num_preds", "preds", &ProcessorConfig::num_preds},
      {"num_btrs", "btrs", &ProcessorConfig::num_btrs},
      {"issue_width", "width", &ProcessorConfig::issue_width},
      {"issue_width", "issue", &ProcessorConfig::issue_width},
      {"datapath_width", "datapath", &ProcessorConfig::datapath_width},
      {"reg_port_budget", "ports", &ProcessorConfig::reg_port_budget},
      {"max_regs_per_instr", "maxregs", &ProcessorConfig::max_regs_per_instr},
      {"load_latency", "latency", &ProcessorConfig::load_latency},
      {"pipeline_stages", "stages", &ProcessorConfig::pipeline_stages},
  };
  struct BoolKey {
    std::string_view name;
    std::string_view alias;
    bool ProcessorConfig::*field;
  };
  static constexpr BoolKey kBoolKeys[] = {
      {"forwarding", "fwd", &ProcessorConfig::forwarding},
      {"unified_memory_contention", "contention",
       &ProcessorConfig::unified_memory_contention},
  };
  for (const UintKey& k : kUintKeys) {
    if (key == k.name || key == k.alias) {
      dim.uint_field = k.field;
      return true;
    }
  }
  for (const BoolKey& k : kBoolKeys) {
    if (key == k.name || key == k.alias) {
      dim.bool_field = k.field;
      return true;
    }
  }
  return false;
}

/// The most points a grid may expand to, far above any real sweep; checked
/// before anything is materialised so a huge range fails fast.
constexpr std::size_t kMaxPoints = std::size_t{1} << 20;

[[noreturn]] void too_many_points(std::string_view grammar) {
  throw ConfigError(
      cat("grid `", grammar, "`: more than ", kMaxPoints, " points"));
}

unsigned parse_grid_uint(std::string_view token, std::string_view grammar) {
  std::int64_t v = 0;
  if (!parse_int(token, v) || v < 0 || v > 0xFFFFFFFFLL) {
    throw ConfigError(
        cat("grid `", grammar, "`: bad value `", token, "`"));
  }
  return static_cast<unsigned>(v);
}

/// Append the values of one token: `7` or `lo..hi`.  One dimension's
/// value count bounds the point count from below, so it obeys the cap.
void append_values(std::string_view token, std::string_view grammar,
                   std::vector<unsigned>& out) {
  const auto dots = token.find("..");
  if (dots == std::string_view::npos) {
    if (out.size() == kMaxPoints) too_many_points(grammar);
    out.push_back(parse_grid_uint(token, grammar));
    return;
  }
  const std::uint64_t lo = parse_grid_uint(token.substr(0, dots), grammar);
  const std::uint64_t hi = parse_grid_uint(token.substr(dots + 2), grammar);
  if (hi < lo) {
    throw ConfigError(
        cat("grid `", grammar, "`: descending range `", token, "`"));
  }
  if (hi - lo + 1 > kMaxPoints - out.size()) too_many_points(grammar);
  for (std::uint64_t v = lo; v <= hi; ++v) {
    out.push_back(static_cast<unsigned>(v));
  }
}

}  // namespace

SweepSpec SweepSpec::from_grid(std::string_view grammar,
                               const ProcessorConfig& base) {
  std::vector<Dimension> dims;
  for (std::string_view raw : split(grammar, ',')) {
    const std::string_view token = trim(raw);
    if (token.empty()) {
      throw ConfigError(cat("grid `", grammar, "`: empty clause"));
    }
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      // Continuation of the previous dimension's value list (`ports=4,8`).
      if (dims.empty()) {
        throw ConfigError(
            cat("grid `", grammar, "`: value `", token,
                "` before any key=... clause"));
      }
      append_values(token, grammar, dims.back().values);
      continue;
    }
    Dimension dim;
    const std::string key = to_lower(trim(token.substr(0, eq)));
    if (!resolve_key(key, dim)) {
      throw ConfigError(cat("grid `", grammar, "`: unknown key `", key, "`"));
    }
    append_values(trim(token.substr(eq + 1)), grammar, dim.values);
    dims.push_back(std::move(dim));
  }
  if (dims.empty()) {
    throw ConfigError(cat("grid `", grammar, "`: no dimensions"));
  }
  for (const Dimension& d : dims) {
    if (d.bool_field) {
      for (unsigned v : d.values) {
        if (v > 1) {
          throw ConfigError(
              cat("grid `", grammar, "`: boolean key takes 0 or 1"));
        }
      }
    }
  }

  // Row-major cartesian product, last dimension fastest.
  SweepSpec spec;
  std::size_t total = 1;
  for (const Dimension& d : dims) {
    if (d.values.size() > kMaxPoints / total) too_many_points(grammar);
    total *= d.values.size();
  }
  spec.points.reserve(total);
  std::vector<std::size_t> idx(dims.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    ProcessorConfig cfg = base;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const unsigned v = dims[d].values[idx[d]];
      if (dims[d].uint_field) {
        cfg.*(dims[d].uint_field) = v;
      } else {
        cfg.*(dims[d].bool_field) = (v != 0);
      }
    }
    spec.points.push_back(std::move(cfg));
    for (std::size_t d = dims.size(); d-- > 0;) {
      if (++idx[d] < dims[d].values.size()) break;
      idx[d] = 0;
    }
  }
  return spec;
}

std::size_t SweepSpec::filter_invalid() {
  const std::size_t before = points.size();
  std::erase_if(points, [](const ProcessorConfig& cfg) {
    try {
      cfg.validate();
      return false;
    } catch (const Error&) {
      return true;
    }
  });
  return before - points.size();
}

}  // namespace cepic::explore
