#include "minic_gen.hpp"

#include <sstream>

namespace perfbench {
namespace {

constexpr int kVars = 16;

/// splitmix64: a small, well-mixed generator that is identical on every
/// platform (std::mt19937 distributions are not).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

/// Writes one single-operation statement: a compound assignment whose
/// right side is another variable, a constant or a shift amount. Each
/// statement reads its destination, so none is dead.
void statement(Rng& rng, std::ostream& out) {
  const int d = rng.below(kVars);
  const int a = rng.below(kVars);
  const int c = 1 + rng.below(65535);
  out << "  v" << d;
  switch (rng.below(10)) {
    case 0: out << " += v" << a; break;
    case 1: out << " -= v" << a; break;
    case 2: out << " ^= v" << a; break;
    case 3: out << " += " << c; break;
    case 4: out << " ^= " << c; break;
    case 5: out << " *= v" << a; break;
    case 6: out << " |= v" << a; break;
    case 7: out << " &= v" << a; break;
    case 8: out << " <<= " << 1 + rng.below(7); break;
    default: out << " >>= " << 1 + rng.below(7); break;
  }
  out << ";\n";
}

}  // namespace

std::string generate_straight_line(std::uint64_t seed, int statements) {
  Rng rng{seed};
  std::ostringstream src;
  src << "// perfbench straight-line program, seed " << seed << "\n"
      << "int seedv[" << kVars << "];\n\n"
      << "int main() {\n"
      // A non-zero xorshift32 state; the loop makes every seeded value
      // unknown to the optimiser.
      << "  int s = " << (1 + rng.below(1 << 30)) << ";\n"
      << "  for (int i = 0; i < " << kVars << "; i++) {\n"
      << "    s ^= s << 13;\n    s ^= s >>> 17;\n    s ^= s << 5;\n"
      << "    seedv[i] = s;\n  }\n";
  for (int i = 0; i < kVars; ++i) src << "  int v" << i << " = seedv[" << i << "];\n";
  for (int n = 0; n < statements; ++n) statement(rng, src);
  for (int i = 0; i < kVars; ++i) src << "  out(v" << i << ");\n";
  src << "  return v0 & 255;\n}\n";
  return src.str();
}

}  // namespace perfbench
