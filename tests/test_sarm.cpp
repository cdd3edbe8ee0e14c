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

// ---- the cycle model, pinned ----
//
// Every SarmStats counter and the output hash of each workload at
// bench_repro's --small sizes, and the exact text and counters at each
// way a run can fault. The counters at a throw are what a caller sees.

std::string stats_line(const SarmStats& s) {
  return cat(s.cycles, " ", s.insts_executed, " ", s.insts_committed, " ",
             s.branches_taken, " ", s.branches_not_taken, " ",
             s.load_use_stalls, " ", s.mul_cycles, " ", s.div_cycles, " ",
             s.mem_reads, " ", s.mem_writes);
}

std::string digest_words(const std::vector<std::uint32_t>& words) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64_words(words)));
  return buf;
}

TEST(SarmModel, PinsEveryCounterOnTheWorkloads) {
  std::ostringstream got;
  for (const workloads::Workload& w : workloads::all_workloads(16, 8, 16, 12)) {
    const SarmSimulator sim = run_minic_on_sarm(w.minic_source);
    EXPECT_EQ(sim.output(), w.expected_output) << w.name;
    got << w.name << " " << stats_line(sim.stats()) << " "
        << digest_words(sim.output()) << "\n";
  }
  // name cycles executed committed taken not-taken load-use-stalls
  // mul-cycles div-cycles reads writes output-hash
  EXPECT_EQ(got.str(),
            "sha 118182 94489 91981 2566 2508 18561 0 0 19459 6242 "
            "824ef5e36532c102\n"
            "aes 840688 565587 529409 60856 36178 64989 0 88400 71368 33872 "
            "955edeb1036803bc\n"
            "dct 71335 46485 45680 574 550 10134 13568 0 11839 3725 "
            "1ed6a27780d15555\n"
            "dijkstra 91467 56837 50380 9381 6457 7618 600 7650 7619 1016 "
            "f481567c96963624\n");
}

struct Fault {
  std::string what;
  std::uint64_t cycles = 0;
  std::uint64_t insts = 0;
};

/// Run to the expected throw of `E` and report its text and counters.
template <typename E = SimError>
Fault fault_of(std::vector<SInst> code, std::size_t mem_size = 4096,
               std::uint64_t max_cycles = 2'000'000'000) {
  SarmOptionsSim opts;
  opts.mem_size = mem_size;
  opts.max_cycles = max_cycles;
  SProgram p;
  p.code = std::move(code);
  SarmSimulator sim(std::move(p), opts);
  Fault f;
  try {
    sim.run();
    f.what = "no fault";
  } catch (const E& e) {
    f.what = e.what();
  }
  f.cycles = sim.stats().cycles;
  f.insts = sim.stats().insts_executed;
  return f;
}

const Operand2 kNoOp2 = Operand2::immediate(0);
constexpr auto kBase = static_cast<std::int32_t>(kDataBase);

TEST(SarmModel, PcPastEndThroughAnUnresolvedTarget) {
  SInst b = mk(SOp::B, 0, 0, kNoOp2);  // target stays -1
  const Fault f = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(3)), b});
  EXPECT_EQ(f.what, "SARM pc 4294967295 past end of program");
  EXPECT_EQ(f.cycles, 4u);
  EXPECT_EQ(f.insts, 2u);
}

TEST(SarmModel, PcPastEndThroughBxAndByFallingOff) {
  const Fault bx = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(1000)),
                             mk(SOp::Bx, 0, 1, kNoOp2)});
  EXPECT_EQ(bx.what, "SARM pc 1000 past end of program");
  EXPECT_EQ(bx.cycles, 4u);
  EXPECT_EQ(bx.insts, 2u);
  const Fault off = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(1))});
  EXPECT_EQ(off.what, "SARM pc 1 past end of program");
  EXPECT_EQ(off.cycles, 1u);
  EXPECT_EQ(off.insts, 1u);
}

TEST(SarmModel, NullGuardLoad) {
  // The second load's base is the first one's result (memory reads 0):
  // its load-use stall is charged before the fault.
  const Fault f = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(kBase)),
                            mk(SOp::Ldr, 2, 1, Operand2::immediate(0)),
                            mk(SOp::Ldr, 3, 2, Operand2::immediate(8))});
  EXPECT_EQ(f.what, "load to unmapped low address 0x8 (null guard)");
  EXPECT_EQ(f.cycles, 4u);
  EXPECT_EQ(f.insts, 3u);
}

TEST(SarmModel, MisalignedWordLoadAndStore) {
  const Fault load = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(kBase)),
                               mk(SOp::Ldr, 2, 1, Operand2::immediate(2))});
  EXPECT_EQ(load.what, "misaligned word load at 0x42");
  EXPECT_EQ(load.cycles, 2u);
  EXPECT_EQ(load.insts, 2u);
  const Fault store = fault_of(
      {mk(SOp::Mov, 1, 0, Operand2::immediate(kBase + 1)),
       mk(SOp::Str, 2, 1, Operand2::reg(1, Shift::Lsr, 31))});
  EXPECT_EQ(store.what, "misaligned word store at 0x41");
  EXPECT_EQ(store.cycles, 2u);
  EXPECT_EQ(store.insts, 2u);
}

TEST(SarmModel, BytesPastTheEndOfMemory) {
  const Fault load = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(4095)),
                               mk(SOp::Ldrb, 2, 1, Operand2::immediate(0)),
                               mk(SOp::Ldrb, 2, 1, Operand2::immediate(1))});
  EXPECT_EQ(load.what, "load past end of memory: 0x1000");
  EXPECT_EQ(load.cycles, 3u);
  EXPECT_EQ(load.insts, 3u);
  const Fault store = fault_of({mk(SOp::Mov, 1, 0, Operand2::immediate(4000)),
                                mk(SOp::Strb, 1, 1, Operand2::immediate(95)),
                                mk(SOp::Strb, 1, 1, Operand2::immediate(96))});
  EXPECT_EQ(store.what, "store past end of memory: 0x1000");
  EXPECT_EQ(store.cycles, 3u);
  EXPECT_EQ(store.insts, 3u);
}

TEST(SarmModel, MinMaxReachingTheSimulatorIsAnInternalError) {
  // A condition-failed MIN is skipped like any other instruction.
  const Fault f = fault_of<InternalError>(
      {mk(SOp::Cmp, 0, 0, Operand2::immediate(1)),
       mk(SOp::Min, 2, 1, Operand2::immediate(2), Cond::EQ),
       mk(SOp::Max, 2, 1, Operand2::immediate(2))});
  EXPECT_NE(f.what.find("min/max are lowered by the code generator"),
            std::string::npos)
      << f.what;
  EXPECT_EQ(f.cycles, 3u);
  EXPECT_EQ(f.insts, 3u);
}

TEST(SarmModel, CycleLimit) {
  SInst loop = mk(SOp::B, 0, 0, kNoOp2);
  loop.target = 0;
  const Fault f = fault_of({loop}, 4096, 1000);
  EXPECT_EQ(f.what, "SARM cycle limit exceeded (1000) — runaway program?");
  EXPECT_EQ(f.cycles, 1002u);
  EXPECT_EQ(f.insts, 334u);
}

/// The SimError text of building a simulator on `code`.
std::string construction_error(std::vector<SInst> code) {
  try {
    sim_of(std::move(code));
  } catch (const SimError& e) {
    return e.what();
  }
  return "no error";
}

TEST(SarmModel, ConstructionRejectsRegistersAboveR15) {
  const SInst halt = mk(SOp::Halt, 0, 0, kNoOp2);
  EXPECT_EQ(
      construction_error({halt, mk(SOp::Add, 16, 1, Operand2::immediate(2))}),
      "SARM instruction 1 (add r16, r1, #2): register r16 out of range");
  EXPECT_EQ(construction_error({mk(SOp::Bx, 0, 99, kNoOp2)}),
            "SARM instruction 0 (bx r99): register r99 out of range");
  EXPECT_EQ(
      construction_error({halt, halt, mk(SOp::Mov, 1, 0, Operand2::reg(40))}),
      "SARM instruction 2 (mov r1, r40): register r40 out of range");
  // An immediate operand's register field is not read.
  Operand2 imm = Operand2::immediate(7);
  imm.rm = 40;
  EXPECT_EQ(construction_error({mk(SOp::Mov, 1, 0, imm), halt}), "no error");
}

TEST(SarmModel, ConstructionRejectsShiftsOf32OrMore) {
  const auto error_of = [](Operand2 op2) {
    return construction_error(
        {mk(SOp::Add, 1, 2, op2), mk(SOp::Halt, 0, 0, kNoOp2)});
  };
  EXPECT_EQ(error_of(Operand2::reg(3, Shift::Lsl, 32)),
            "SARM instruction 0 (add r1, r2, r3, lsl #32): shift amount 32 "
            "out of range 0..31");
  EXPECT_EQ(error_of(Operand2::reg(3, Shift::Asr, 200)),
            "SARM instruction 0 (add r1, r2, r3, asr #200): shift amount 200 "
            "out of range 0..31");
  EXPECT_EQ(error_of(Operand2::reg(3, Shift::Lsr, 31)), "no error");
}

TEST(SarmModel, EveryShiftOfTheBarrelShifter) {
  // 0x80000010 through each shift kind at 0, 1 and 31.
  std::vector<SInst> code = {
      mk(SOp::Mov, 1, 0, Operand2::immediate(1)),
      mk(SOp::Lsl, 1, 1, Operand2::immediate(31)),
      mk(SOp::Orr, 1, 1, Operand2::immediate(16)),
  };
  const Shift kinds[] = {Shift::Lsl, Shift::Lsr, Shift::Asr};
  for (const Shift kind : kinds) {
    for (const std::uint8_t amount : {0, 1, 31}) {
      code.push_back(mk(SOp::Out, 0, 0, Operand2::reg(1, kind, amount)));
    }
  }
  code.push_back(mk(SOp::Halt, 0, 0, kNoOp2));
  auto sim = sim_of(std::move(code));
  sim.run();
  EXPECT_EQ(sim.output(),
            (std::vector<std::uint32_t>{0x80000010u, 0x00000020u, 0u,
                                        0x80000010u, 0x40000008u, 1u,
                                        0x80000010u, 0xC0000008u,
                                        0xFFFFFFFFu}));
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
