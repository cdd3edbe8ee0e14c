// Shared plumbing for the CEPIC command-line tools: file I/O,
// configuration loading, and — since PR 2 — one OptionTable parser so
// every tool spells shared options identically (`--config FILE`,
// `--cache DIR`, `--cache-stats`, `--jobs N`) and prints its usage from
// the same table it parses with. Tools print a short usage and exit 2
// on bad arguments, exit 1 on tool errors (with the library's
// diagnostic).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "serial/serial.hpp"
#include "sim/stats.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::tools {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline std::vector<std::uint8_t> read_binary(const std::string& path) {
  const std::string s = read_file(path);
  return {s.begin(), s.end()};
}

inline void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
}

inline void write_binary(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Load a processor configuration: default when `path` is empty. Both
/// the textual `key = value` form and a binary CEPX configuration
/// container are accepted; the form is detected from the file contents
/// (magic bytes), never from the file name.
inline ProcessorConfig load_config(const std::string& path) {
  if (path.empty()) return ProcessorConfig{};
  const std::string raw = read_file(path);
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()};
  if (serial::looks_like_cepx(bytes)) return serial::decode_config(bytes);
  return ProcessorConfig::from_text(raw);
}

/// Run a tool main body with uniform error reporting. A fault escaping
/// the body is stamped into the flight recorder, which also dumps the
/// rings when the tool configured `--flight-out` (obs_begin) — the
/// post-mortem trace outlives the failed process.
template <typename Fn>
int tool_main(const char* tool, Fn&& body) {
  try {
    return body();
  } catch (const Error& e) {
    obs::flight_record_fault(e.what());
    std::cerr << tool << ": " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    obs::flight_record_fault(e.what());
    std::cerr << tool << ": internal error: " << e.what() << "\n";
    return 1;
  }
}

/// One option table per tool: declares the options once, parses from it
/// and prints usage from it, so a flag can never drift between the two.
/// Option names are matched exactly; the token `-` and anything not
/// starting with `-` are positionals; `--help` or an unknown option
/// prints usage. Malformed values throw Error (tool exit 1).
class OptionTable {
public:
  /// `head` is the synopsis line after "usage: ", e.g.
  /// "cepic-cc <source.mc> [options]".
  explicit OptionTable(std::string head) : head_(std::move(head)) {}

  /// A valueless switch: presence sets `*out` to true.
  OptionTable& flag(std::string name, std::string help, bool* out) {
    specs_.push_back({std::move(name), "", std::move(help),
                      [out](const std::string&) { *out = true; }, false});
    return *this;
  }

  /// A valueless switch with an arbitrary handler, applied in argv order.
  OptionTable& flag(std::string name, std::string help,
                    std::function<void()> apply) {
    specs_.push_back({std::move(name), "", std::move(help),
                      [apply](const std::string&) { apply(); }, false});
    return *this;
  }

  /// A string-valued option: `--name META`.
  OptionTable& str(std::string name, std::string meta, std::string help,
                   std::string* out) {
    specs_.push_back({std::move(name), std::move(meta), std::move(help),
                      [out](const std::string& v) { *out = v; }, true});
    return *this;
  }

  /// A non-negative integer option.
  OptionTable& uint(std::string name, std::string meta, std::string help,
                    unsigned* out) {
    std::string flag_name = name;
    specs_.push_back(
        {std::move(name), std::move(meta), std::move(help),
         [out, flag_name](const std::string& v) {
           std::int64_t parsed = 0;
           if (!parse_int(v, parsed) || parsed < 0) {
             throw Error(flag_name + " needs a non-negative integer");
           }
           *out = static_cast<unsigned>(parsed);
         },
         true});
    return *this;
  }

  /// A positive 64-bit integer option.
  OptionTable& uint64_positive(std::string name, std::string meta,
                               std::string help, std::uint64_t* out) {
    std::string flag_name = name;
    specs_.push_back({std::move(name), std::move(meta), std::move(help),
                      [out, flag_name](const std::string& v) {
                        std::int64_t parsed = 0;
                        if (!parse_int(v, parsed) || parsed <= 0) {
                          throw Error("bad " + flag_name);
                        }
                        *out = static_cast<std::uint64_t>(parsed);
                      },
                      true});
    return *this;
  }

  /// A positive integer option that fits in an int.
  OptionTable& int_positive(std::string name, std::string meta,
                            std::string help, int* out) {
    std::string flag_name = name;
    specs_.push_back(
        {std::move(name), std::move(meta), std::move(help),
         [out, flag_name](const std::string& v) {
           constexpr int kMax = std::numeric_limits<int>::max();
           std::int64_t parsed = 0;
           if (!parse_int(v, parsed) || parsed <= 0 || parsed > kMax) {
             throw Error(cat(flag_name, " needs an integer in 1..", kMax));
           }
           *out = static_cast<int>(parsed);
         },
         true});
    return *this;
  }

  /// A real-valued option (any finite double).
  OptionTable& real(std::string name, std::string meta, std::string help,
                    double* out) {
    std::string flag_name = name;
    specs_.push_back({std::move(name), std::move(meta), std::move(help),
                      [out, flag_name](const std::string& v) {
                        try {
                          std::size_t used = 0;
                          *out = std::stod(v, &used);
                          if (used != v.size()) throw Error("");
                        } catch (const std::exception&) {
                          throw Error(flag_name + " needs a number");
                        }
                      },
                      true});
    return *this;
  }

  /// Arbitrary handler for a valued option.
  OptionTable& value(std::string name, std::string meta, std::string help,
                     std::function<void(const std::string&)> apply) {
    specs_.push_back({std::move(name), std::move(meta), std::move(help),
                      std::move(apply), true});
    return *this;
  }

  int usage() const {
    std::cerr << "usage: " << head_ << "\n";
    for (const Spec& s : specs_) {
      std::string left = "  " + s.name;
      if (!s.meta.empty()) left += " " + s.meta;
      std::cerr << pad_right(left, 22) << s.help << "\n";
    }
    return 2;
  }

  /// Parse argv; positionals (in order) land in `positionals`. Returns
  /// false after printing usage on `--help` or an unknown option.
  bool parse(int argc, char** argv, std::vector<std::string>& positionals) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-" || arg.empty() || arg[0] != '-') {
        positionals.push_back(arg);
        continue;
      }
      const Spec* spec = nullptr;
      for (const Spec& s : specs_) {
        if (s.name == arg) {
          spec = &s;
          break;
        }
      }
      if (spec == nullptr) {
        usage();
        return false;
      }
      std::string value;
      if (spec->takes_value) {
        if (i + 1 >= argc) throw Error(arg + " needs a value");
        value = argv[++i];
      }
      spec->apply(value);
    }
    return true;
  }

private:
  struct Spec {
    std::string name;
    std::string meta;  ///< value placeholder; empty for flags
    std::string help;
    std::function<void(const std::string&)> apply;
    bool takes_value;
  };

  std::string head_;
  std::vector<Spec> specs_;
};

// --- the canonical shared options ------------------------------------
// Every tool that offers one of these MUST add it through the helper so
// the spelling, placeholder and help text stay identical across
// cepic-cc, cepic-sim and cepic-explore.

/// `--config FILE` — processor configuration.
inline void add_config_option(OptionTable& table, std::string* config_path) {
  table.str("--config", "FILE", "processor configuration file", config_path);
}

/// `--cache DIR` + `--cache-stats` — the persistent content-addressed
/// compile store (artifacts shared across configurations, tools and
/// runs; results.cache lives inside it) and its stderr report.
inline void add_cache_options(OptionTable& table, std::string* store_dir,
                              bool* cache_stats) {
  table.str("--cache", "DIR",
            "persistent compile store (artifacts + results)", store_dir);
  table.flag("--cache-stats", "report store hits/misses to stderr",
             cache_stats);
}

/// `--jobs N` — shared thread-pool width.
inline void add_jobs_option(OptionTable& table, unsigned* jobs) {
  table.uint("--jobs", "N", "worker threads; 0 = all hardware threads",
             jobs);
}

/// `--exec-tier TIER` — simulator execution tier (docs/SIM.md
/// "Execution tiers"). Spellings match to_string(ExecTier).
inline void add_exec_tier_option(OptionTable& table, ExecTier* tier) {
  table.value("--exec-tier", "TIER",
              "simulator tier: threaded (default), decode or interp",
              [tier](const std::string& v) {
                if (v == "interp") {
                  *tier = ExecTier::Interp;
                } else if (v == "decode") {
                  *tier = ExecTier::Decode;
                } else if (v == "threaded") {
                  *tier = ExecTier::Threaded;
                } else {
                  throw Error("--exec-tier needs interp, decode or threaded");
                }
              });
}

// --- observability ----------------------------------------------------

/// Shared observability surface: the two flags every tool spells the
/// same way (docs/OBSERVABILITY.md).
struct ObsOptions {
  std::string trace_out;     ///< Chrome trace JSON of toolchain spans
  std::string metrics_json;  ///< flat counters/gauges/histograms report
  std::string flight_out;    ///< flight-recorder dump (always-on rings)
};

/// `--trace-out FILE` + `--metrics-json FILE` + `--flight-out FILE`.
inline void add_obs_options(OptionTable& table, ObsOptions* obs) {
  table.str("--trace-out", "FILE",
            "write toolchain spans as Chrome trace JSON (Perfetto)",
            &obs->trace_out);
  table.str("--metrics-json", "FILE",
            "write counters/gauges/histograms as JSON", &obs->metrics_json);
  table.str("--flight-out", "FILE",
            "dump the always-on flight recorder (last events per thread) "
            "as Chrome trace JSON, on exit and on faults",
            &obs->flight_out);
}

/// Call right after parse(): switches span recording on when a trace
/// was requested (the whole tool run is covered) and registers the
/// fault-dump path when a flight dump was requested, so a fault
/// anywhere below leaves the post-mortem file even though the normal
/// obs_finish exit is never reached.
inline void obs_begin(const ObsOptions& obs) {
  if (!obs.trace_out.empty()) cepic::obs::set_enabled(true);
  if (!obs.flight_out.empty()) {
    cepic::obs::set_flight_fault_path(obs.flight_out);
  }
}

/// Call once the tool's work (and any Service::publish_stats()) is
/// done: writes the requested artifacts.
inline void obs_finish(const ObsOptions& obs) {
  if (!obs.trace_out.empty()) cepic::obs::write_trace_json(obs.trace_out);
  if (!obs.metrics_json.empty()) {
    cepic::obs::write_metrics_json(obs.metrics_json);
  }
  if (!obs.flight_out.empty()) {
    cepic::obs::write_flight_json(obs.flight_out);
  }
}

/// The `--cache-stats` report: one grep-able summary line (a fully warm
/// run shows `compiles=0`) plus one line per store granularity. Folds
/// the Service's counters into the obs registry first and renders from
/// that snapshot, so `--metrics-json` and this report can never
/// disagree.
inline void print_cache_stats(const char* tool,
                              const pipeline::ServiceStats& stats) {
  pipeline::publish_stats(stats);
  const auto counters = obs::Registry::instance().counters();
  const auto get = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [k, v] : counters) {
      if (k == name) return v;
    }
    return 0;
  };
  const auto granularity = [&](const char* name) {
    std::cerr << tool << ": cache-stats " << name
              << " hits=" << get(cat("store.", name, ".hits"))
              << " misses=" << get(cat("store.", name, ".misses"))
              << " puts=" << get(cat("store.", name, ".puts")) << "\n";
  };
  std::cerr << tool << ": cache-stats compiles=" << get("pipeline.compiles")
            << " frontend=" << get("pipeline.frontend_runs")
            << " backend=" << get("pipeline.backend_runs")
            << " simulations=" << get("pipeline.simulations")
            << " result-hits=" << get("pipeline.result_hits")
            << " result-misses=" << get("pipeline.result_misses")
            << " sim-dedup=" << get("pipeline.sim_dedup_hits")
            << " ir-lint=" << get("pipeline.ir_lint_runs")
            << " module-waits=" << get("pipeline.module_waits")
            << " image-waits=" << get("pipeline.image_waits") << "\n";
  granularity("ir");
  granularity("program");
  granularity("irlint");
}

}  // namespace cepic::tools
