// Seeded MiniC program generator for the benchmark's compile-bound
// input: one `main` of straight-line compound assignments over values
// that a loop seeds at run time, so constant folding, CSE and DCE can
// remove none of them. The program under test only ever sees the
// generated source text.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// `statements` straight-line statements over 16 live variables; every
/// variable is emitted with out() at the end. The same seed always
/// yields the same text.
std::string generate_straight_line(std::uint64_t seed, int statements);

}  // namespace perfbench
