// SARM baseline tests: cycle model microtests on hand-built programs,
// code-generation checks, and e2e equivalence against the interpreter.
//
// SarmGolden pins the emitted SARM code over the four workloads at
// bench_repro's --small sizes and the first 200 verifying IR fuzz
// modules. Each line holds two digests: the program with register
// numbers masked (moves only when instruction selection, spilling or
// layout change) and the full program. Regenerate
// tests/golden/sarm_digests.txt by rerunning the test with
// CEPIC_REGEN_GOLDEN=1 in the environment.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "ir/verify.hpp"
#include "sarm/codegen.hpp"
#include "sarm/sim.hpp"
#include "support/bits.hpp"
#include "workloads/workloads.hpp"

#include "test_util.hpp"

namespace cepic::sarm {
namespace {

SInst mk(SOp op, std::uint32_t rd, std::uint32_t rn, Operand2 op2,
         Cond cond = Cond::AL) {
  SInst i;
  i.op = op;
  i.cond = cond;
  i.rd = rd;
  i.rn = rn;
  i.op2 = op2;
  return i;
}

SarmSimulator sim_of(std::vector<SInst> code) {
  SProgram p;
  p.code = std::move(code);
  return SarmSimulator(std::move(p));
}

TEST(SarmSim, BasicAluAndHalt) {
  auto sim = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(5)),
      mk(SOp::Add, 2, 1, Operand2::immediate(7)),
      mk(SOp::Mul, 3, 1, Operand2::reg(2)),
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.reg(2), 12u);
  EXPECT_EQ(sim.reg(3), 60u);
  // 3 issued + halt issue + mul extra 2 = 6 cycles.
  EXPECT_EQ(sim.stats().cycles, 6u);
}

TEST(SarmSim, BarrelShifterOperand) {
  auto sim = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(3)),
      mk(SOp::Add, 2, 1, Operand2::reg(1, Shift::Lsl, 4)),  // 3 + 3*16
      mk(SOp::Mov, 3, 0, Operand2::reg(1, Shift::Asr, 1)),
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.reg(2), 51u);
  EXPECT_EQ(sim.reg(3), 1u);
  EXPECT_EQ(sim.stats().cycles, 4u);  // shifts are free
}

TEST(SarmSim, ConditionCodes) {
  auto sim = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(-3)),
      mk(SOp::Cmp, 0, 1, Operand2::immediate(2)),
      mk(SOp::Mov, 2, 0, Operand2::immediate(111), Cond::LT),
      mk(SOp::Mov, 3, 0, Operand2::immediate(222), Cond::GE),
      mk(SOp::Cmp, 0, 1, Operand2::immediate(-3)),
      mk(SOp::Mov, 4, 0, Operand2::immediate(1), Cond::EQ),
      // -3 unsigned is huge: HI should pass against 2.
      mk(SOp::Cmp, 0, 1, Operand2::immediate(2)),
      mk(SOp::Mov, 5, 0, Operand2::immediate(1), Cond::HI),
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.reg(2), 111u);
  EXPECT_EQ(sim.reg(3), 0u);  // cond failed
  EXPECT_EQ(sim.reg(4), 1u);
  EXPECT_EQ(sim.reg(5), 1u);
}

TEST(SarmSim, CondFailedStillCostsACycle) {
  auto sim = sim_of({
      mk(SOp::Cmp, 0, 0, Operand2::immediate(1)),          // 0 != 1
      mk(SOp::Mov, 2, 0, Operand2::immediate(9), Cond::EQ),  // fails
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.stats().cycles, 3u);
  // Only the conditional mov failed its condition.
  EXPECT_EQ(sim.stats().insts_executed - sim.stats().insts_committed, 1u);
}

TEST(SarmSim, TakenBranchPenalty) {
  SInst b = mk(SOp::B, 0, 0, {});
  b.target = 2;
  auto sim = sim_of({
      b,
      mk(SOp::Mov, 1, 0, Operand2::immediate(1)),  // skipped
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.reg(1), 0u);
  // b (1+2 penalty) + halt (1) = 4.
  EXPECT_EQ(sim.stats().cycles, 4u);
  EXPECT_EQ(sim.stats().branches_taken, 1u);
}

TEST(SarmSim, NotTakenBranchIsFree) {
  SInst b = mk(SOp::B, 0, 0, {}, Cond::EQ);
  b.target = 2;
  auto sim = sim_of({
      mk(SOp::Cmp, 0, 0, Operand2::immediate(1)),  // Z clear
      b,
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.stats().cycles, 3u);
  EXPECT_EQ(sim.stats().branches_not_taken, 1u);
}

TEST(SarmSim, LoadUseInterlock) {
  auto sim = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(static_cast<std::int32_t>(kDataBase))),
      mk(SOp::Ldr, 2, 1, Operand2::immediate(0)),
      mk(SOp::Add, 3, 2, Operand2::immediate(1)),  // uses r2: +1 stall
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.stats().load_use_stalls, 1u);
  EXPECT_EQ(sim.stats().cycles, 5u);

  auto sim2 = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(static_cast<std::int32_t>(kDataBase))),
      mk(SOp::Ldr, 2, 1, Operand2::immediate(0)),
      mk(SOp::Mov, 4, 0, Operand2::immediate(9)),  // filler
      mk(SOp::Add, 3, 2, Operand2::immediate(1)),
      mk(SOp::Halt, 0, 0, {}),
  });
  sim2.run();
  EXPECT_EQ(sim2.stats().load_use_stalls, 0u);
}

TEST(SarmSim, SoftwareDivideCost) {
  auto sim = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(100)),
      mk(SOp::Mov, 2, 0, Operand2::immediate(7)),
      mk(SOp::SDiv, 3, 1, Operand2::reg(2)),
      mk(SOp::SRem, 4, 1, Operand2::reg(2)),
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.reg(3), 14u);
  EXPECT_EQ(sim.reg(4), 2u);
  EXPECT_EQ(sim.stats().cycles, 5u + 2u * 34u);
}

TEST(SarmSim, DivideCornerCasesMatchEpic) {
  auto sim = sim_of({
      mk(SOp::Mov, 1, 0, Operand2::immediate(42)),
      mk(SOp::SDiv, 2, 1, Operand2::immediate(0)),
      mk(SOp::SRem, 3, 1, Operand2::immediate(0)),
      mk(SOp::Halt, 0, 0, {}),
  });
  sim.run();
  EXPECT_EQ(sim.reg(2), 0u);
  EXPECT_EQ(sim.reg(3), 42u);
}

TEST(SarmSim, MemoryIsBigEndianShared) {
  SProgram p;
  p.data = {0xDE, 0xAD, 0xBE, 0xEF};
  p.code = {
      mk(SOp::Mov, 1, 0, Operand2::immediate(static_cast<std::int32_t>(kDataBase))),
      mk(SOp::Ldr, 2, 1, Operand2::immediate(0)),
      mk(SOp::Halt, 0, 0, {}),
  };
  SarmSimulator sim(std::move(p));
  sim.run();
  EXPECT_EQ(sim.reg(2), 0xDEADBEEFu);
}

TEST(SarmSim, RunawayGuard) {
  SInst loop = mk(SOp::B, 0, 0, {});
  loop.target = 0;
  SarmOptionsSim opts;
  opts.max_cycles = 1000;
  SProgram p;
  p.code = {loop};
  SarmSimulator sim(std::move(p), opts);
  EXPECT_THROW(sim.run(), SimError);
}

// ---- code generation ----

TEST(SarmCodegen, CompilesAndRuns) {
  auto sim = sarm::run_minic_on_sarm(
      "int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i;"
      " out(s); return s; }");
  ASSERT_EQ(sim.output().size(), 1u);
  EXPECT_EQ(sim.output()[0], 55u);
  EXPECT_EQ(sim.reg(0), 55u);
}

TEST(SarmCodegen, FoldsShiftsIntoAddressing) {
  // Array indexing should use the barrel shifter, not separate LSLs.
  const SProgram p = sarm::compile_minic_to_sarm(
      "int t[8];\n"
      "int main() { int s = 0;"
      " for (int i = 0; i < 8; i++) s += t[i]; return s; }");
  int shifted_operands = 0;
  int standalone_shifts = 0;
  for (const SInst& inst : p.code) {
    if (!inst.op2.is_imm && inst.op2.shift != Shift::None) ++shifted_operands;
    if (inst.op == SOp::Lsl) ++standalone_shifts;
  }
  EXPECT_GE(shifted_operands, 1);
  // Only the stack-pointer setup shift should remain standalone.
  EXPECT_LE(standalone_shifts, 2);
}

TEST(SarmCodegen, UsesConditionalMovesForCmpValues) {
  const SProgram p = sarm::compile_minic_to_sarm(
      "int g[1] = {4};\n"
      "int main(){ int c = g[0] < 5; return c; }");
  bool cond_mov = false;
  for (const SInst& inst : p.code) {
    if (inst.op == SOp::Mov && inst.cond != Cond::AL) cond_mov = true;
  }
  EXPECT_TRUE(cond_mov);
}

TEST(SarmCodegen, RejectsTooManyArgs) {
  EXPECT_THROW(sarm::compile_minic_to_sarm(
                   "int g(int a,int b,int c,int d,int e) { return a; }\n"
                   "int main() { return g(1,2,3,4,5); }"),
               Error);
}

TEST(SarmCodegen, RejectsFramesItsImmediatesCannotEncode) {
  // 4 bytes of return address + 40000 of locals: past the 16-bit signed
  // sp adjustment both targets encode.
  const char* src =
      "int main() { int a[10000];"
      " for (int i = 0; i < 10000; i++) a[i] = i; out(a[9999]); return 0; }";
  const auto error_of = [](const auto& compile) -> std::string {
    try {
      compile();
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of([&] { pipeline::run_once(src, ProcessorConfig{}); }),
            "frame of @main too large: 40004");
  EXPECT_EQ(error_of([&] { sarm::run_minic_on_sarm(src); }),
            "frame of @main too large: 40004");
}

// ---- e2e equivalence against the interpreter ----

const char* kCorpus[] = {
    "int main() { int acc = 0;"
    " for (int i = 1; i <= 30; i++) acc += (i * i) % 7 - (acc >>> 2);"
    " out(acc); return acc; }",
    "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
    "int main() { out(fib(12)); return fib(9); }",
    "int v[8] = {5, 2, 8, 1, 9, 3, 7, 4};\n"
    "int main() {"
    "  for (int i = 0; i < 8; i++)"
    "    for (int j = 0; j + 1 < 8 - i; j++)"
    "      if (v[j] > v[j+1]) { int t = v[j]; v[j] = v[j+1]; v[j+1] = t; }"
    "  for (int i = 0; i < 8; i++) out(v[i]);"
    "  return v[7]; }",
    "int main() { int s = 1; int h = 0;"
    " for (int i = 0; i < 50; i++) {"
    "   s ^= s << 13; s ^= s >>> 17; s ^= s << 5;"
    "   h += (s >>> 24) % 10; }"
    " out(h); return h; }",
    "int main() { out(min(3, -4)); out(max(10, 2)); out(abs(-7));"
    " out(100 / 7); out(100 % 7); out((-100) / 7); return 0; }",
};

TEST(SarmE2e, MatchesInterpreterOnCorpus) {
  for (const char* src : kCorpus) {
    ir::Module m = minic::compile_to_ir(src);
    const ir::InterpResult gold = ir::Interpreter(m).run();
    auto sim = sarm::run_minic_on_sarm(src);
    EXPECT_EQ(sim.output(), gold.output) << src;
    EXPECT_EQ(sim.reg(0), gold.ret) << src;
  }
}

TEST(SarmE2e, UnoptimisedAlsoMatches) {
  sarm::SarmCompileOptions options;
  options.optimize = false;
  for (const char* src : kCorpus) {
    ir::Module m = minic::compile_to_ir(src);
    const ir::InterpResult gold = ir::Interpreter(m).run();
    auto sim = sarm::run_minic_on_sarm(src, options);
    EXPECT_EQ(sim.output(), gold.output) << src;
  }
}

TEST(SarmE2e, EpicAndSarmAgreeBitForBit) {
  for (const char* src : kCorpus) {
    auto epic = pipeline::run_once(src, ProcessorConfig{});
    auto sarm_sim = sarm::run_minic_on_sarm(src);
    EXPECT_EQ(epic.output(), sarm_sim.output()) << src;
  }
}

// ---- golden code digests ----

std::string digest(const std::string& text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

/// "<masked> <full>" digests of a program's listing; the masked one
/// replaces every register number `rN` with `r#`.
std::string code_digests(const SProgram& p) {
  const std::string text = to_string(p);
  static const std::regex kReg("r[0-9]+");
  return cat(digest(std::regex_replace(text, kReg, "r#")), " ", digest(text));
}

TEST(SarmGolden, DigestsMatchCommittedCorpus) {
  std::ostringstream fresh;
  // bench_repro's --small sizes.
  for (const workloads::Workload& w : workloads::all_workloads(16, 8, 16, 12)) {
    fresh << "workload " << w.name << " "
          << code_digests(compile_minic_to_sarm(w.minic_source)) << "\n";
  }
  // The first 200 fuzz modules that verify, as in ScheduleGolden.
  for (std::uint64_t seed = 1, kept = 0; kept < 200; ++seed) {
    Prng rng(seed);
    const ir::Module m = testutil::random_module(rng);
    try {
      ir::verify_module(m);
    } catch (const InternalError&) {
      continue;
    }
    ++kept;
    std::string digests = "throw";
    try {
      digests = code_digests(compile_ir_to_sarm(m));
    } catch (const Error&) {
    }
    fresh << "fuzz " << seed << " " << digests << "\n";
  }

  const std::string path =
      std::string(CEPIC_TEST_DIR) + "/golden/sarm_digests.txt";
  if (std::getenv("CEPIC_REGEN_GOLDEN") != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    std::ofstream out(path, std::ios::binary);
    out << fresh.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden corpus at " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), fresh.str())
      << "SARM code drifted from the committed digests; if the change is "
         "intentional, update tests/golden/sarm_digests.txt";
}

}  // namespace
}  // namespace cepic::sarm
