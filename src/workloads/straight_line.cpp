// Seeded straight-line MiniC generator: the compile-bound input for the
// scheduler's golden digests and scaling benchmarks. One `main` whose
// body is a single long block of compound assignments, array loads and
// stores and out() calls over 16 variables a loop seeds at run time, so
// the optimiser can fold none of them away. Every statement reads its
// destination, so none is dead.
#include <sstream>

#include "support/prng.hpp"
#include "workloads/workloads.hpp"

namespace cepic::workloads {

namespace {

constexpr int kVars = 16;

void statement(Prng& rng, std::ostream& out) {
  const int d = static_cast<int>(rng.next_below(kVars));
  const int a = static_cast<int>(rng.next_below(kVars));
  const int slot = static_cast<int>(rng.next_below(kVars));
  switch (rng.next_below(14)) {
    case 0: out << "  v" << d << " += v" << a; break;
    case 1: out << "  v" << d << " -= v" << a; break;
    case 2: out << "  v" << d << " ^= v" << a; break;
    case 3: out << "  v" << d << " += " << rng.next_in(1, 65535); break;
    case 4: out << "  v" << d << " ^= " << rng.next_in(1, 65535); break;
    case 5: out << "  v" << d << " *= v" << a; break;
    case 6: out << "  v" << d << " |= v" << a; break;
    case 7: out << "  v" << d << " &= v" << a; break;
    case 8: out << "  v" << d << " <<= " << rng.next_in(1, 7); break;
    case 9: out << "  v" << d << " >>= " << rng.next_in(1, 7); break;
    case 10: out << "  mem[" << slot << "] = v" << a; break;
    case 11: out << "  v" << d << " += mem[" << slot << "]"; break;
    case 12: out << "  v" << d << " ^= mem[v" << a << " & 15]"; break;
    default: out << "  out(v" << a << ")"; break;
  }
  out << ";\n";
}

}  // namespace

std::string make_straight_line(std::uint64_t seed, int statements) {
  Prng rng(seed);
  std::ostringstream src;
  src << "// straight-line program, seed " << seed << ", " << statements
      << " statements\n"
      << "int seedv[" << kVars << "];\nint mem[" << kVars << "];\n\n"
      << "int main() {\n"
      << "  int s = " << rng.next_in(1, 1 << 30) << ";\n"
      << "  for (int i = 0; i < " << kVars << "; i++) {\n"
      << "    s ^= s << 13;\n    s ^= s >>> 17;\n    s ^= s << 5;\n"
      << "    seedv[i] = s;\n    mem[i] = s >>> 3;\n  }\n";
  for (int i = 0; i < kVars; ++i) {
    src << "  int v" << i << " = seedv[" << i << "];\n";
  }
  for (int n = 0; n < statements; ++n) statement(rng, src);
  for (int i = 0; i < kVars; ++i) src << "  out(v" << i << ");\n";
  src << "  return v0 & 255;\n}\n";
  return src.str();
}

}  // namespace cepic::workloads
