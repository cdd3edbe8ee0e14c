// cepic-lint — the config-aware machine-code verifier as a tool: prove
// statically that scheduled EPIC programs respect the architectural
// contract of a processor configuration (docs/LINT.md documents every
// rule with its paper grounding).
//
//   cepic-lint [input ...] [options]
//
// Binary CEPX containers are detected by their magic bytes (regardless
// of file name) and checked against the configuration embedded in them
// (--config/--grid do not apply: the bundles were laid out for exactly
// that configuration). Text inputs are classified by extension:
//   *.mc    MiniC source — compiled through the shared pipeline::Service
//           (so `--cache DIR` reuses compiled Programs and IR-lint
//           reports across runs and tools), then checked for every
//           configuration
//   *.s     assembly text — assembled for every configuration, then
//           checked (an assembly-time rejection is reported as a
//           finding for that configuration)
//
//   --workloads    also lint the four built-in paper workloads
//                  (SHA-256, AES-128, DCT, Dijkstra)
//   --ir           also run the IR-level lint (ir.* rules: use-before-
//                  def, dead stores, unreachable blocks, always-false
//                  guards, constant branches, out-of-bounds global
//                  accesses) over MiniC inputs. Config-independent:
//                  one report per input, cached in the store at the
//                  IR-lint granularity
//   --predict      attach the static cycle prediction (exact SimStats
//                  on statically-resolved programs, a stall-model bound
//                  otherwise — docs/ANALYSIS.md) to every check
//   --config FILE  base processor configuration
//   --grid SPEC    check across a configuration grid, e.g.
//                  alus=1..4,forwarding=0,1 (cepic-explore grammar);
//                  invalid points are skipped with a note
//   --Werror       exit non-zero on warnings (port-budget, latency)
//                  as well as errors
//   --json         machine-readable report on stdout
//   --cache DIR    persistent compile store shared with cepic-cc etc.
//   --cache-stats  report store hits/misses to stderr
//   --jobs N       worker threads for compilation
//
// Exit status: 0 every check clean, 1 any finding (or any input that
// failed to compile/assemble/load), 2 usage error.
#include "tool_common.hpp"

#include <iostream>
#include <string>
#include <vector>

#include "analysis/irlint.hpp"
#include "analysis/static_cycles.hpp"
#include "asmtool/assembler.hpp"
#include "core/custom.hpp"
#include "core/program.hpp"
#include "explore/sweep.hpp"
#include "mcheck/mcheck.hpp"
#include "workloads/workloads.hpp"

namespace {

enum class InputKind { kMinic, kAssembly, kProgram };

struct Input {
  std::string name;
  InputKind kind;
  std::string text;                 ///< MiniC or assembly text
  std::vector<std::uint8_t> bytes;  ///< CEPX container
};

/// Binary containers announce themselves via magic bytes; text inputs
/// fall back to the extension.
InputKind classify(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
  if (cepic::serial::looks_like_cepx(bytes)) return InputKind::kProgram;
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".s" || ext == ".asm") return InputKind::kAssembly;
  return InputKind::kMinic;
}

/// One (input, configuration) check: either a report or a failure to
/// produce a Program at all. `--ir` rows carry an IR-level LintReport
/// instead of an mcheck one; `--predict` attaches a cycle prediction.
struct CheckOutcome {
  std::string input;
  std::string config;
  cepic::mcheck::Report report;
  std::string error;  ///< non-empty: compile/assemble/load failed

  bool is_ir = false;  ///< IR-lint row: `ir_report` is the payload
  cepic::analysis::LintReport ir_report;

  bool has_predict = false;
  cepic::analysis::StaticCycleReport predict;

  std::size_t error_count() const {
    return is_ir ? ir_report.error_count() : report.error_count();
  }
  std::size_t warning_count() const {
    return is_ir ? ir_report.warning_count() : report.warning_count();
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cepic;
  return tools::tool_main("cepic-lint", [&]() -> int {
    std::string config_path;
    std::string grid;
    bool use_workloads = false;
    bool ir_lint = false;
    bool predict = false;
    bool werror = false;
    bool json = false;
    bool cache_stats = false;
    pipeline::Options popts;

    tools::OptionTable table("cepic-lint [input ...] [options]");
    tools::add_config_option(table, &config_path);
    table.str("--grid", "SPEC",
              "check across a config grid, e.g. alus=1..4", &grid);
    table.flag("--workloads", "also lint the four built-in paper workloads",
               &use_workloads);
    table.flag("--ir", "also run the IR-level lint over MiniC inputs",
               &ir_lint);
    table.flag("--predict", "attach the static cycle prediction to each check",
               &predict);
    table.flag("--Werror", "treat warnings as errors", &werror);
    table.flag("--json", "machine-readable report on stdout", &json);
    tools::add_jobs_option(table, &popts.jobs);
    tools::add_cache_options(table, &popts.store_dir, &cache_stats);
    tools::ObsOptions obs_opts;
    tools::add_obs_options(table, &obs_opts);

    std::vector<std::string> paths;
    if (!table.parse(argc, argv, paths)) return 2;
    if (paths.empty() && !use_workloads) return table.usage();
    tools::obs_begin(obs_opts);

    std::vector<Input> inputs;
    for (const std::string& path : paths) {
      Input in;
      in.name = path;
      in.bytes = tools::read_binary(path);
      in.kind = classify(path, in.bytes);
      if (in.kind != InputKind::kProgram) {
        in.text.assign(in.bytes.begin(), in.bytes.end());
        in.bytes.clear();
      }
      inputs.push_back(std::move(in));
    }
    if (use_workloads) {
      for (const workloads::Workload& w : workloads::all_workloads(8, 2, 8, 6)) {
        Input in;
        in.name = cat("workload:", w.name);
        in.kind = InputKind::kMinic;
        in.text = w.minic_source;
        inputs.push_back(std::move(in));
      }
    }

    const ProcessorConfig base = tools::load_config(config_path);
    std::vector<ProcessorConfig> configs;
    if (grid.empty()) {
      base.validate();
      configs.push_back(base);
    } else {
      explore::SweepSpec spec = explore::SweepSpec::from_grid(grid, base);
      const std::size_t dropped = spec.filter_invalid();
      if (dropped != 0) {
        std::cerr << "note: " << dropped
                  << " grid point(s) invalid, skipped\n";
      }
      if (spec.empty()) {
        std::cerr << "error: grid `" << grid << "` has no valid points\n";
        return 1;
      }
      configs = std::move(spec.points);
    }

    pipeline::Service service(popts);
    const mcheck::CheckOptions copts{werror};

    const auto attach_predict = [&](CheckOutcome& out,
                                    const Program& program) {
      if (!predict) return;
      out.has_predict = true;
      out.predict = analysis::predict_cycles(
          program, CustomOpTable::for_names(program.config.custom_ops));
    };

    std::vector<CheckOutcome> outcomes;
    for (const Input& in : inputs) {
      if (in.kind == InputKind::kProgram) {
        CheckOutcome out;
        out.input = in.name;
        try {
          const Program program = serial::decode_program(in.bytes);
          out.config = program.config.summary();
          out.report = mcheck::check_program(program, copts);
          attach_predict(out, program);
        } catch (const Error& e) {
          out.error = e.what();
        }
        outcomes.push_back(std::move(out));
        continue;
      }
      if (ir_lint && in.kind == InputKind::kMinic) {
        // One IR-lint row per input: the report is config-independent
        // (and store-cached at the IR-lint granularity).
        CheckOutcome out;
        out.input = in.name;
        out.config = "ir";
        out.is_ir = true;
        try {
          out.ir_report = service.lint_ir(in.text, werror);
        } catch (const Error& e) {
          out.error = e.what();
        }
        outcomes.push_back(std::move(out));
      }
      for (const ProcessorConfig& config : configs) {
        CheckOutcome out;
        out.input = in.name;
        out.config = config.summary();
        try {
          const Program program =
              in.kind == InputKind::kMinic
                  ? service.compile_program(in.text, config)
                  : asmtool::assemble(in.text, config);
          out.report = mcheck::check_program(program, copts);
          attach_predict(out, program);
        } catch (const Error& e) {
          out.error = e.what();
        }
        outcomes.push_back(std::move(out));
      }
    }

    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t failed_inputs = 0;
    for (const CheckOutcome& out : outcomes) {
      if (!out.error.empty()) {
        ++failed_inputs;
        continue;
      }
      errors += out.error_count();
      warnings += out.warning_count();
    }

    if (json) {
      std::string text = "[";
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const CheckOutcome& out = outcomes[i];
        if (i != 0) text += ",";
        if (!out.error.empty()) {
          text += cat("{\"input\":\"", out.input, "\",\"config\":\"",
                      out.config, "\",\"error\":\"", out.error, "\"}");
        } else {
          text += cat("{\"input\":\"", out.input, "\",\"config\":\"",
                      out.config, "\",\"report\":",
                      out.is_ir ? out.ir_report.to_json()
                                : out.report.to_json());
          if (out.has_predict) {
            text += cat(",\"predict\":", out.predict.to_json());
          }
          text += "}";
        }
      }
      text += "]\n";
      std::cout << text;
    } else {
      for (const CheckOutcome& out : outcomes) {
        const std::string head = cat(out.input, " [", out.config, "]");
        const bool clean =
            out.is_ir ? out.ir_report.diags.empty() : out.report.diags.empty();
        if (!out.error.empty()) {
          std::cout << head << ": error: " << out.error << "\n";
        } else if (clean) {
          std::cout << head << ": clean\n";
        } else if (out.is_ir) {
          std::cout << head << ":\n" << out.ir_report.to_text();
        } else {
          std::cout << head << ":\n" << out.report.to_text();
        }
        if (out.has_predict) std::cout << out.predict.to_string();
      }
      std::cout << "cepic-lint: " << outcomes.size() << " check(s), "
                << errors << " error(s), " << warnings << " warning(s)";
      if (failed_inputs != 0) {
        std::cout << ", " << failed_inputs << " input(s) failed to build";
      }
      std::cout << "\n";
    }

    service.publish_stats();
    if (cache_stats) tools::print_cache_stats("cepic-lint", service.stats());
    tools::obs_finish(obs_opts);
    return (errors != 0 || failed_inputs != 0) ? 1 : 0;
  });
}
