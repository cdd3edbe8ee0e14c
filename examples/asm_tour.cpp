// Assembly tour: the configuration-driven assembler of paper §4.2.
// Hand-written EPIC assembly with explicit MultiOps, predication and
// prepared branches; assembled twice for different customisations from
// *configuration text alone* (no recompilation), executed with a cycle
// trace, disassembled, and shipped through the CEPX binary container.
//
//   $ ./build/examples/asm_tour
#include <iostream>

#include "serial/serial.hpp"
#include "asmtool/assembler.hpp"
#include "sim/simulator.hpp"
#include "support/text.hpp"

int main() {
  using namespace cepic;

  // Sum the elements of `table` larger than a threshold — with the
  // compare, guarded accumulate and loop bookkeeping packed into wide
  // MultiOps by hand.
  const char* source = R"(
    .data
    .global table 8 = 3 14 1 59 26 5 35 9
    .global threshold 1 = 10

    .text
    .entry main
    main:
      mov r10, @table ; mov r12, #0 ; mov r13, #8 ;;   // base, sum, count
      mov r14, @threshold ;;
      ldw r15, r14, #0 ;;                               // threshold value
      pbr b1, @loop ;;
    loop:
      ldw r16, r10, #0 ; add r10, r10, #4 ; sub r13, r13, #1 ;;
      cmpp.gt p1, p2, r16, r15 ;;                       // dual-target compare
      (p1) add r12, r12, r16 ; cmpp.gt p3, p0, r13, #0 ;;
      brct b1, p3 ;;
      out r12 ;;
      halt ;;
  )";

  std::cout << "--- assembling for the default 4-issue core ---\n";
  const Program wide = asmtool::assemble(source, ProcessorConfig{});
  EpicSimulator sim(wide);
  // The cycle trace is the text rendering of a timeline capped at 10
  // bundles.
  SimTimeline timeline(sim.config(), 10);
  sim.set_timeline(&timeline);
  sim.run();
  std::cout << "sum of elements > threshold: " << sim.output().at(0)
            << " (expect 134)\n";
  std::cout << "cycles: " << sim.stats().cycles << "\n";

  std::cout << "\n--- first 10 trace entries ---\n"
            << timeline.to_text(sim.program());

  std::cout << "\n--- retarget to a single-issue core (config text only, "
               "paper §4.2) ---\n";
  try {
    asmtool::assemble(source, ProcessorConfig::from_text("issue_width = 1\n"));
    std::cout << "unexpected: wide MultiOps accepted on a 1-issue core\n";
  } catch (const AsmError& e) {
    std::cout << "assembler (correctly) rejects the wide MultiOps:\n  "
              << e.what() << "\n";
  }

  std::cout << "\n--- disassembly round trip ---\n";
  const std::string listing = asmtool::disassemble(wide);
  int lines = 0;
  for (std::string_view line : split(listing, '\n')) {
    if (lines++ >= 12) break;
    std::cout << line << "\n";
  }
  const Program again = asmtool::assemble(listing, wide.config);
  std::cout << "reassembled bit-identical: "
            << (again.encode_code() == wide.encode_code() ? "yes" : "NO")
            << "\n";

  std::cout << "\n--- CEPX binary container ---\n";
  const std::vector<std::uint8_t> bytes = serial::encode_program(wide);
  const Program loaded = serial::decode_program(bytes);
  std::cout << "serialised " << bytes.size() << " bytes; reload matches: "
            << (loaded.encode_code() == wide.encode_code() ? "yes" : "NO")
            << "\n";
  return 0;
}
