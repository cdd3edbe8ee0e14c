// Quickstart: compile a MiniC program for a customised EPIC processor
// with a pipeline::Service, print the generated assembly
// (Service::compile_asm), run the Program on the cycle-level simulator,
// and read the results — the whole tool flow of the paper in ~40 lines.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "pipeline/pipeline.hpp"
#include "support/text.hpp"

int main() {
  using namespace cepic;

  // A small program: dot product plus a reduction, with output.
  const char* source = R"(
    int a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int b[8] = {8, 7, 6, 5, 4, 3, 2, 1};

    int dot(int x[], int y[], int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) acc += x[i] * y[i];
      return acc;
    }

    int main() {
      out(dot(a, b, 8));
      int fold = 0;
      for (int i = 0; i < 8; i++) fold = fold * 31 + a[i];
      out(fold);
      return 0;
    }
  )";

  // Customise the processor: 2 ALUs, dual-issue — a small core.
  ProcessorConfig config;
  config.num_alus = 2;
  config.issue_width = 2;

  // Compile: MiniC -> IR -> optimiser -> EPIC backend -> assembler. The
  // Service shares the optimised IR between the two requests.
  pipeline::Service service;
  const Program program = service.compile_program(source, config);

  // The same backend output printed as assembly (what `cepic-cc
  // --emit-asm` writes).
  const std::string text = service.compile_asm(source, config);
  std::cout << "--- generated assembly (first 24 lines) ---\n";
  int shown = 0;
  for (std::string_view line : split(text, '\n')) {
    if (shown++ >= 24) break;
    std::cout << line << "\n";
  }

  // Run on the cycle-level simulator.
  EpicSimulator sim(program);
  sim.run();

  std::cout << "\n--- execution ---\n";
  std::cout << "dot product: " << sim.output().at(0) << "\n";
  std::cout << "fold:        " << sim.output().at(1) << "\n";
  std::cout << "\n--- cycle statistics ---\n" << sim.stats().report();
  return 0;
}
