// End-to-end cross-execution equivalence: every MiniC program in the
// corpus must produce the identical output stream and return value on
//   (a) the IR interpreter (golden),
//   (b) the EPIC simulator, across processor customisations,
//   (c) with and without optimisation / scheduling / if-conversion.
// This is the strongest compiler-correctness property in the suite.
#include <gtest/gtest.h>

#include "pipeline/pipeline.hpp"
#include "frontend/irgen.hpp"
#include "ir/interp.hpp"

namespace cepic {
namespace {

const char* kPrograms[] = {
    // Arithmetic mix with mul/div/rem and bit ops.
    "int main() {"
    "  int acc = 0;"
    "  for (int i = 1; i <= 20; i++) {"
    "    acc += (i * 7) % 5 + (acc / (i + 1)) - (i << 2) + (acc >>> 3);"
    "    acc ^= i; }"
    "  out(acc); return acc & 0xFF; }",
    // Array workloads with helper functions (exercises calls + inliner).
    "int buf[16];\n"
    "void fill(int a[], int n, int seed) {"
    "  for (int i = 0; i < n; i++) { seed = seed * 1103 + 12345;"
    "    a[i] = (seed >>> 8) % 100; } }\n"
    "int sum(int a[], int n) { int s = 0;"
    "  for (int i = 0; i < n; i++) s += a[i]; return s; }\n"
    "int main() { fill(buf, 16, 7); out(sum(buf, 16));"
    "  return sum(buf, 8); }",
    // Branch-heavy: sorting a small array (bubble sort).
    "int v[8] = {5, 2, 8, 1, 9, 3, 7, 4};\n"
    "int main() {"
    "  for (int i = 0; i < 8; i++)"
    "    for (int j = 0; j + 1 < 8 - i; j++)"
    "      if (v[j] > v[j+1]) { int t = v[j]; v[j] = v[j+1]; v[j+1] = t; }"
    "  for (int i = 0; i < 8; i++) out(v[i]);"
    "  return v[0]; }",
    // Recursion + locals.
    "int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }\n"
    "int main() { out(gcd(252, 105)); out(gcd(17, 5)); return gcd(48, 36); }",
    // Strings, bytes in words, xorshift PRNG.
    "int key[] = \"CEPIC\";\n"
    "int main() { int s = 1; int h = 0;"
    "  for (int i = 0; i < 5; i++) {"
    "    s ^= s << 13; s ^= s >>> 17; s ^= s << 5;"
    "    h = h * 31 + (key[i] ^ (s & 0xFF)); }"
    "  out(h); return h; }",
    // Guarded-store pattern (Dijkstra relax) + min/max builtins.
    "int dist[6] = {0, 1000, 1000, 1000, 1000, 1000};\n"
    "int w[36] = {0,7,9,0,0,14, 7,0,10,15,0,0, 9,10,0,11,0,2,"
    "             0,15,11,0,6,0, 0,0,0,6,0,9, 14,0,2,0,9,0};\n"
    "int main() {"
    "  int done[6]; for (int i = 0; i < 6; i++) done[i] = 0;"
    "  for (int iter = 0; iter < 6; iter++) {"
    "    int best = 100000; int u = -1;"
    "    for (int i = 0; i < 6; i++)"
    "      if (!done[i] && dist[i] < best) { best = dist[i]; u = i; }"
    "    if (u < 0) break;"
    "    done[u] = 1;"
    "    for (int v2 = 0; v2 < 6; v2++) {"
    "      int wt = w[u * 6 + v2];"
    "      if (wt != 0) {"
    "        int alt = dist[u] + wt;"
    "        if (alt < dist[v2]) dist[v2] = alt; } } }"
    "  for (int i = 0; i < 6; i++) out(dist[i]);"
    "  return dist[4]; }",
    // Deep expression trees for the scheduler.
    "int main() { int a = 3; int b = 5; int c = 7; int d = 11;"
    "  int r = ((a*b + c*d) * (a*c - b*d) + (a*d + b*c) * (a*b - c*d))"
    "        ^ ((a+b) * (c+d) * (a-b) * (c-d));"
    "  out(r); return r; }",
};

ir::InterpResult golden(const char* src) {
  ir::Module m = minic::compile_to_ir(src);
  return ir::Interpreter(m).run();
}

void expect_match(const char* src, const ProcessorConfig& cfg,
                  const pipeline::CodegenOptions& options) {
  const ir::InterpResult gold = golden(src);
  EpicSimulator sim = pipeline::run_once(src, cfg, options);
  EXPECT_EQ(sim.output(), gold.output) << src;
  EXPECT_EQ(sim.gpr(3), gold.ret) << src;
}

struct E2eConfig {
  const char* name;
  unsigned alus;
  unsigned issue;
  bool optimize;
  bool schedule;
  bool if_convert;
};

// Without this, gtest prints the param as raw bytes, pointer and padding
// included, so the discovered CTest names would change with every build.
void PrintTo(const E2eConfig& config, std::ostream* os) { *os << config.name; }

class E2eEpic : public ::testing::TestWithParam<E2eConfig> {};

TEST_P(E2eEpic, MatchesInterpreterOnCorpus) {
  const E2eConfig& pc = GetParam();
  ProcessorConfig cfg;
  cfg.num_alus = pc.alus;
  cfg.issue_width = pc.issue;
  pipeline::CodegenOptions options;
  options.optimize = pc.optimize;
  options.backend.schedule = pc.schedule;
  options.opt.if_convert = pc.if_convert;
  for (const char* src : kPrograms) {
    expect_match(src, cfg, options);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, E2eEpic,
    ::testing::Values(
        E2eConfig{"alu4_full", 4, 4, true, true, true},
        E2eConfig{"alu1_full", 1, 4, true, true, true},
        E2eConfig{"alu2_issue2", 2, 2, true, true, true},
        E2eConfig{"alu3_issue1", 3, 1, true, true, true},
        E2eConfig{"unoptimized", 4, 4, false, true, true},
        E2eConfig{"unscheduled", 4, 4, true, false, true},
        E2eConfig{"no_ifconvert", 4, 4, true, true, false}),
    [](const ::testing::TestParamInfo<E2eConfig>& info) {
      return info.param.name;
    });

TEST(E2eEpic, SmallRegisterFilesStillWork) {
  ProcessorConfig cfg;
  cfg.num_gprs = 16;  // heavy spilling
  cfg.num_preds = 4;
  cfg.num_btrs = 2;
  for (const char* src : kPrograms) {
    expect_match(src, cfg, {});
  }
}

TEST(E2eEpic, NoForwardingStillCorrect) {
  ProcessorConfig cfg;
  cfg.forwarding = false;
  expect_match(kPrograms[2], cfg, {});
}

TEST(E2eEpic, MemoryContentionModelStillCorrect) {
  ProcessorConfig cfg;
  cfg.unified_memory_contention = true;
  expect_match(kPrograms[1], cfg, {});
}

TEST(E2eEpic, MoreAlusNeverSlower) {
  // The headline customisation claim: adding ALUs monotonically helps
  // (or at least does not hurt) an arithmetic-rich program.
  const char* src = kPrograms[6];
  std::uint64_t prev = ~std::uint64_t{0};
  for (unsigned alus : {1u, 2u, 4u}) {
    ProcessorConfig cfg;
    cfg.num_alus = alus;
    EpicSimulator sim = pipeline::run_once(src, cfg);
    EXPECT_LE(sim.stats().cycles, prev) << alus << " ALUs";
    prev = sim.stats().cycles;
  }
}

TEST(E2eEpic, SchedulingReducesCycles) {
  const char* src = kPrograms[6];
  pipeline::CodegenOptions sched;
  pipeline::CodegenOptions unsched;
  unsched.backend.schedule = false;
  const auto fast = pipeline::run_once(src, ProcessorConfig{}, sched);
  const auto slow = pipeline::run_once(src, ProcessorConfig{}, unsched);
  EXPECT_LT(fast.stats().cycles, slow.stats().cycles);
}

TEST(E2eEpic, IfConversionReducesBranches) {
  const char* src = kPrograms[5];  // Dijkstra-like
  pipeline::CodegenOptions with_ic;
  pipeline::CodegenOptions without_ic;
  without_ic.opt.if_convert = false;
  const auto a = pipeline::run_once(src, ProcessorConfig{}, with_ic);
  const auto b = pipeline::run_once(src, ProcessorConfig{}, without_ic);
  EXPECT_LT(a.stats().branches_taken + a.stats().branches_not_taken,
            b.stats().branches_taken + b.stats().branches_not_taken);
}

TEST(E2eEpic, CustomRotrInstructionWorks) {
  ProcessorConfig cfg;
  cfg.custom_ops = {"rotr"};
  // No MiniC surface syntax for custom ops yet — drive via assembly in
  // test_assembler; here just check the config threads through the
  // driver (compile something unrelated on the custom-enabled core).
  expect_match(kPrograms[0], cfg, {});
}

}  // namespace
}  // namespace cepic
