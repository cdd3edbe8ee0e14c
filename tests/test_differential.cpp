// Differential testing: every bundled workload (SHA, AES, DCT,
// Dijkstra) and a corpus of seed-logged generated MiniC programs run
// through both the IR reference interpreter (the golden model) and the
// EPIC cycle-level simulator across 4 processor customisations (1-4
// ALUs), asserting identical OUT streams and exit state. The workloads
// are additionally checked against their bit-exact native golden
// references, closing the loop interpreter == simulator == native. The
// first generated corpus also runs with a 16-GPR EPIC and on the SA-110
// baseline, where register pressure makes both allocators spill.
#include <gtest/gtest.h>

#include <sstream>

#include "pipeline/pipeline.hpp"
#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "mcheck/mcheck.hpp"
#include "sarm/driver.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"
#include "workloads/workloads.hpp"

namespace cepic {
namespace {

ir::InterpResult golden(const std::string& src) {
  ir::Module m = minic::compile_to_ir(src);
  return ir::Interpreter(m).run();
}

/// Every program this harness simulates must also prove statically
/// clean (-Werror) under mcheck for the same configuration: the
/// scheduler's architectural claims are checked by an independent
/// oracle, not just by the simulator happening to agree.
void expect_lint_clean(const std::string& src, const ProcessorConfig& cfg) {
  const Program program = pipeline::compile_once(src, cfg);
  const mcheck::Report rep =
      mcheck::check_program(program, mcheck::CheckOptions{.werror = true});
  EXPECT_TRUE(rep.clean()) << "on " << cfg.summary() << "\n" << rep.to_text();
}

/// Run `src` on the EPIC simulator for 1..4 ALUs and compare the OUT
/// stream and return value against the interpreter.
void expect_all_alu_configs_match(const std::string& src,
                                  const ir::InterpResult& gold) {
  for (unsigned alus = 1; alus <= 4; ++alus) {
    SCOPED_TRACE(cat(alus, " ALUs"));
    ProcessorConfig cfg;
    cfg.num_alus = alus;
    SimOptions sim_options;
    sim_options.max_cycles = 8'000'000'000ull;
    EpicSimulator sim = pipeline::run_once(src, cfg, {}, sim_options);
    EXPECT_EQ(sim.output(), gold.output);
    EXPECT_EQ(sim.gpr(3), gold.ret);
    expect_lint_clean(src, cfg);
  }
}

// ------------------------------------------------- bundled workloads

class WorkloadDifferential
    : public ::testing::TestWithParam<workloads::Workload> {};

TEST_P(WorkloadDifferential, InterpreterSimulatorAndNativeGoldenAgree) {
  const workloads::Workload& w = GetParam();
  const ir::InterpResult gold = golden(w.minic_source);
  // Interpreter vs the native reference implementation.
  EXPECT_EQ(gold.output, w.expected_output);
  // Simulator vs interpreter, across ALU counts.
  expect_all_alu_configs_match(w.minic_source, gold);
}

INSTANTIATE_TEST_SUITE_P(
    AllBundledWorkloads, WorkloadDifferential,
    ::testing::ValuesIn(workloads::all_workloads(
        /*sha_dim=*/8, /*aes_iters=*/2, /*dct_dim=*/8,
        /*dijkstra_nodes=*/6)),
    [](const ::testing::TestParamInfo<workloads::Workload>& info) {
      return info.param.name;
    });

// ------------------------------------------------ generated programs

/// Deterministic random MiniC program: four int variables mutated by a
/// loop of random arithmetic/logic statements (division and remainder
/// use non-zero literal divisors; shift counts are small literals), some
/// guarded by random comparisons to exercise if-conversion. Every
/// execution path ends by emitting all variables through out().
std::string generate_program(Prng& rng) {
  const char kVars[] = {'a', 'b', 'c', 'd'};
  std::ostringstream os;
  os << "int main() {\n";
  for (char v : kVars) {
    os << "  int " << v << " = " << rng.next_in(-1000, 1000) << ";\n";
  }
  os << "  for (int i = 0; i < " << rng.next_in(4, 12) << "; i++) {\n";
  const int statements = rng.next_in(5, 12);
  for (int s = 0; s < statements; ++s) {
    const char dst = kVars[rng.next_below(4)];
    const auto operand = [&]() -> std::string {
      if (rng.next_below(3) == 0) return cat(rng.next_in(-99, 99));
      return std::string(1, kVars[rng.next_below(4)]);
    };
    os << "    ";
    if (rng.next_below(4) == 0) {
      static const char* kCmps[] = {"<", "<=", ">", ">=", "==", "!="};
      os << "if (" << kVars[rng.next_below(4)] << " "
         << kCmps[rng.next_below(6)] << " " << kVars[rng.next_below(4)]
         << ") ";
    }
    os << dst << " = ";
    switch (rng.next_below(10)) {
      case 0: os << operand() << " + " << operand(); break;
      case 1: os << operand() << " - " << operand(); break;
      case 2: os << operand() << " * " << operand(); break;
      case 3: os << operand() << " & " << operand(); break;
      case 4: os << operand() << " | " << operand(); break;
      case 5: os << operand() << " ^ " << operand(); break;
      case 6: os << operand() << " / " << rng.next_in(1, 9); break;
      case 7: os << operand() << " % " << rng.next_in(1, 9); break;
      case 8: os << operand() << " << " << rng.next_below(8); break;
      default: os << operand() << " >>> " << rng.next_below(8); break;
    }
    os << ";\n";
  }
  os << "    " << kVars[rng.next_below(4)] << " ^= i;\n";
  os << "  }\n";
  os << "  out(a); out(b); out(c); out(d); out(a ^ b ^ c ^ d);\n";
  os << "  return (a ^ b) & 0xFF;\n}\n";
  return os.str();
}

/// Each seed also runs with 16 GPRs (four allocatable, r12..r15) and on
/// the SA-110 baseline (nine), so both targets' spill paths meet the
/// interpreter.
TEST(GeneratedDifferential, RandomProgramsAgreeAcrossAluCounts) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Prng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::string src = generate_program(rng);
    SCOPED_TRACE(cat("seed=", seed, "\n", src));
    const ir::InterpResult gold = golden(src);
    ASSERT_EQ(gold.output.size(), 5u);
    expect_all_alu_configs_match(src, gold);

    ProcessorConfig gpr16;
    gpr16.num_gprs = 16;
    EpicSimulator epic = pipeline::run_once(src, gpr16);
    EXPECT_EQ(epic.output(), gold.output) << "16 GPRs";
    EXPECT_EQ(epic.gpr(3), gold.ret) << "16 GPRs";
    expect_lint_clean(src, gpr16);

    const sarm::SarmSimulator sa110 = sarm::run_minic_on_sarm(src);
    EXPECT_EQ(sa110.output(), gold.output) << "SA-110";
    EXPECT_EQ(sa110.reg(0), gold.ret) << "SA-110";
  }
}

TEST(GeneratedDifferential, RandomProgramsAgreeAcrossIssueWidths) {
  for (std::uint64_t seed = 20; seed <= 25; ++seed) {
    Prng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::string src = generate_program(rng);
    SCOPED_TRACE(cat("seed=", seed, "\n", src));
    const ir::InterpResult gold = golden(src);
    for (unsigned issue : {1u, 2u, 4u}) {
      SCOPED_TRACE(cat("issue_width=", issue));
      ProcessorConfig cfg;
      cfg.issue_width = issue;
      EpicSimulator sim = pipeline::run_once(src, cfg);
      EXPECT_EQ(sim.output(), gold.output);
      EXPECT_EQ(sim.gpr(3), gold.ret);
      expect_lint_clean(src, cfg);
    }
  }
}

/// Forwarding off forces the scheduler to cover full write-to-read
/// latencies with explicit distance instead of bypass paths — a
/// different schedule, the same architectural results.
TEST(GeneratedDifferential, RandomProgramsAgreeWithForwardingOff) {
  for (std::uint64_t seed = 30; seed <= 34; ++seed) {
    Prng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::string src = generate_program(rng);
    SCOPED_TRACE(cat("seed=", seed, "\n", src));
    const ir::InterpResult gold = golden(src);
    for (unsigned alus : {1u, 2u, 4u}) {
      SCOPED_TRACE(cat("num_alus=", alus, " forwarding=0"));
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      cfg.forwarding = false;
      EpicSimulator sim = pipeline::run_once(src, cfg);
      EXPECT_EQ(sim.output(), gold.output);
      EXPECT_EQ(sim.gpr(3), gold.ret);
      expect_lint_clean(src, cfg);
    }
  }
}

/// Unified-memory contention stalls overlapping accesses; combined with
/// deeper pipelines it reshuffles timing aggressively, but the
/// architectural OUT stream and exit state must be untouched.
TEST(GeneratedDifferential, RandomProgramsAgreeUnderMemoryContention) {
  for (std::uint64_t seed = 35; seed <= 39; ++seed) {
    Prng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::string src = generate_program(rng);
    SCOPED_TRACE(cat("seed=", seed, "\n", src));
    const ir::InterpResult gold = golden(src);
    for (unsigned stages : {2u, 3u, 4u}) {
      SCOPED_TRACE(cat("stages=", stages, " contention=1"));
      ProcessorConfig cfg;
      cfg.num_alus = 2;
      cfg.pipeline_stages = stages;
      cfg.unified_memory_contention = true;
      EpicSimulator sim = pipeline::run_once(src, cfg);
      EXPECT_EQ(sim.output(), gold.output);
      EXPECT_EQ(sim.gpr(3), gold.ret);
    }
  }
}

}  // namespace
}  // namespace cepic
