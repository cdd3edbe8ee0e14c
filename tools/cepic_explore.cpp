// cepic-explore — parallel design-space exploration over the user's own
// MiniC programs (the paper's intended workflow, §6): sweep processor
// customisations, compile and simulate every (program, point) pair
// through the shared pipeline::Service batch scheduler, and report
// cycles, area, frequency, wall-clock time and power, with
// Pareto-frontier marking and CSV/JSON export.
//
//   cepic-explore prog.mc [more.mc ...] [options]
//     --grid SPEC    sweep dimensions, e.g. alus=1..4,width=1..4,ports=4,8
//                    (default: alus=1..4)
//     --config FILE  base processor configuration the grid varies
//     --pipeline     also sweep pipeline stages 2..3 (legacy flag)
//     --jobs N       worker threads; 0 = all hardware threads (default 1)
//     --cache DIR    persistent compile store: points differing only in
//                    simulation-visible parameters share one compiled
//                    program, and artifacts + simulation results are
//                    reused across runs and tools
//     --cache-stats  report store hits/misses per granularity to stderr
//     --csv FILE     write the result table as CSV ("-" = stdout); with
//                    several sources, source i writes FILE.i
//     --json FILE    write the result table as JSON (same convention)
//     --pareto       print only Pareto-optimal points (cycles x slices
//                    x power)
//
// Output is byte-identical for any --jobs value and any cache
// temperature: results are ordered by grid position, never by
// completion time, and cached results replay the stored outcome.
#include "tool_common.hpp"

#include <algorithm>

#include "explore/explore.hpp"

namespace {

void write_file_or_stdout(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return;
  }
  cepic::tools::write_file(path, text);
}

/// Export path for source `w`: the path itself for a single source,
/// `path.<w>` for several ("-" always appends to stdout in order).
std::string export_path(const std::string& path, std::size_t w,
                        std::size_t sources) {
  if (path == "-" || sources == 1) return path;
  return cepic::cat(path, ".", w);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cepic;
  return tools::tool_main("cepic-explore", [&]() -> int {
    std::string grid;
    std::string config_path;
    std::string csv_path;
    std::string json_path;
    bool sweep_pipeline = false;
    bool pareto_only = false;
    bool cache_stats = false;
    pipeline::Options options;

    tools::OptionTable table(
        "cepic-explore <prog.mc> [more.mc ...] [options]");
    table.str("--grid", "SPEC",
              "sweep dimensions, e.g. alus=1..4,ports=4,8", &grid);
    tools::add_config_option(table, &config_path);
    table.flag("--pipeline", "also sweep pipeline stages 2..3",
               &sweep_pipeline);
    tools::add_jobs_option(table, &options.jobs);
    tools::add_cache_options(table, &options.store_dir, &cache_stats);
    table.str("--csv", "FILE", "write the result table as CSV (\"-\" = stdout)",
              &csv_path);
    table.str("--json", "FILE",
              "write the result table as JSON (\"-\" = stdout)", &json_path);
    table.flag("--pareto", "print only Pareto-optimal points", &pareto_only);
    tools::ObsOptions obs_opts;
    tools::add_obs_options(table, &obs_opts);

    std::vector<std::string> paths;
    if (!table.parse(argc, argv, paths)) return 2;
    if (paths.empty()) return table.usage();
    tools::obs_begin(obs_opts);

    std::vector<std::string> sources;
    sources.reserve(paths.size());
    for (const std::string& path : paths) {
      sources.push_back(tools::read_file(path));
    }
    const ProcessorConfig base = tools::load_config(config_path);

    if (grid.empty()) {
      grid = sweep_pipeline ? "alus=1..4,stages=2..3" : "alus=1..4";
    } else if (sweep_pipeline) {
      grid += ",stages=2..3";
    }
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

    const explore::SweepBatch batch =
        explore::run_sweep_batch(sources, spec, options);

    // When an export goes to stdout, the human table would corrupt it.
    const bool print_table = csv_path != "-" && json_path != "-";
    bool any_ok = false;
    std::size_t cache_hits = 0;
    std::size_t total_points = 0;
    for (std::size_t w = 0; w < batch.sweeps.size(); ++w) {
      const explore::SweepResult& result = batch.sweeps[w];
      cache_hits += result.cache_hits;
      total_points += result.points.size();
      if (print_table) {
        if (batch.sweeps.size() > 1) {
          std::cout << (w == 0 ? "" : "\n") << "== " << paths[w] << " ==\n";
        }
        std::cout << pad_right("configuration", 26) << pad_left("cycles", 10)
                  << pad_left("slices", 9) << pad_left("fmax", 9)
                  << pad_left("time(ms)", 10) << pad_left("power", 9)
                  << "  pareto\n";
        const auto frontier = result.pareto_indices();
        for (std::size_t i = 0; i < result.points.size(); ++i) {
          const explore::PointResult& p = result.points[i];
          if (!p.ok) {
            std::cout << pad_right(p.config.summary(), 26) << "  error: "
                      << p.error << "\n";
            continue;
          }
          const bool pareto =
              std::binary_search(frontier.begin(), frontier.end(), i);
          if (pareto_only && !pareto) continue;
          std::cout << pad_right(p.config.summary(), 26)
                    << pad_left(cat(p.cycles), 10)
                    << pad_left(fixed(p.slices, 0), 9)
                    << pad_left(fixed(p.fmax_mhz, 1), 9)
                    << pad_left(fixed(p.time_ms, 3), 10)
                    << pad_left(cat(fixed(p.power_mw, 0), " mW"), 9)
                    << (pareto ? "  *" : "") << "\n";
        }
      }
      if (!csv_path.empty()) {
        write_file_or_stdout(export_path(csv_path, w, batch.sweeps.size()),
                             result.to_csv());
      }
      if (!json_path.empty()) {
        write_file_or_stdout(export_path(json_path, w, batch.sweeps.size()),
                             result.to_json());
      }
      any_ok = any_ok ||
               std::any_of(result.points.begin(), result.points.end(),
                           [](const auto& p) { return p.ok; });
    }
    pipeline::publish_stats(batch.stats);
    obs::Registry::instance().set_counter("explore.points_total",
                                          total_points);
    obs::Registry::instance().set_counter("explore.points_from_result_cache",
                                          cache_hits);
    if (cache_stats) tools::print_cache_stats("cepic-explore", batch.stats);
    tools::obs_finish(obs_opts);
    return any_ok ? 0 : 1;
  });
}
