// The paper-reproduction experiments (DESIGN.md §4: Table 1, Figs 3-5,
// §5.1 resource usage, ablations A1-A5) as one table of data, run as
// batches on long-lived pipeline::Services. bench_repro is the
// command-line front end; tests/test_repro.cpp pins every experiment's
// output byte for byte.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cepic::repro {

struct Sizes {
  int sha_dim = 64;         // paper: 256x256 image
  int aes_iters = 100;      // paper: 1000 iterations
  int dct_dim = 64;         // paper: 256x256 image
  int dijkstra_nodes = 32;  // paper: "a large graph"
};
inline constexpr Sizes kSmall{16, 8, 16, 12};  ///< `--small` (CI-sized)

/// Every experiment's command-line name, in DESIGN.md order.
std::vector<std::string> experiment_names();

/// Run the named experiments (all when `names` is empty) in DESIGN.md
/// order, printing their tables to `out`. Sizes must be positive, DCT's
/// a multiple of 8. Returns false when a point failed or missed its
/// golden output; a `!!` line before the table says which.
bool run(const std::vector<std::string>& names, const Sizes& sizes,
         std::ostream& out);

}  // namespace cepic::repro
