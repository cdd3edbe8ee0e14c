// bench_repro: runs the named paper-reproduction experiments, or all of
// them in DESIGN.md order (bench/repro.hpp).
#include <algorithm>
#include <iostream>

#include "repro.hpp"
#include "tool_common.hpp"

int main(int argc, char** argv) {
  using namespace cepic;
  return tools::tool_main("bench_repro", [&] {
    repro::Sizes s;
    tools::OptionTable table(
        "bench_repro [table1|fig3|fig4|fig5|resource|a1..a5 ...] [options]");
    table.flag("--small", "reduced workload sizes (CI-friendly)",
               [&] { s = repro::kSmall; });
    table.int_positive("--sha", "N", "SHA image side", &s.sha_dim);
    table.int_positive("--aes", "N", "AES iterations", &s.aes_iters);
    table.int_positive("--dct", "N", "DCT image side, a multiple of 8",
                       &s.dct_dim);
    table.int_positive("--dijkstra", "N", "Dijkstra graph nodes",
                       &s.dijkstra_nodes);
    std::vector<std::string> names;
    if (!table.parse(argc, argv, names)) return 2;
    if (s.dct_dim % 8 != 0) throw Error("--dct must be a multiple of 8");
    const std::vector<std::string> known = repro::experiment_names();
    for (const std::string& name : names) {
      if (std::ranges::find(known, name) == known.end()) return table.usage();
    }
    return repro::run(names, s, std::cout) ? 0 : 1;
  });
}
