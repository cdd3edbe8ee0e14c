// Functional tests of the EPIC simulator: operation semantics, MultiOp
// read-before-write, predication, branching, memory, custom ops, faults.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace cepic {
namespace {

using namespace testutil;

EpicSimulator sim_of(std::initializer_list<std::vector<Instruction>> bundles,
                     ProcessorConfig cfg = {}) {
  return EpicSimulator(make_program(cfg, bundles));
}

TEST(Sim, MovAndAdd) {
  auto sim = sim_of({{mov(1, I(5))},
                     {add(2, R(1), I(7))},
                     {out(R(2)), halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(1), 5u);
  EXPECT_EQ(sim.gpr(2), 12u);
  ASSERT_EQ(sim.output().size(), 1u);
  EXPECT_EQ(sim.output()[0], 12u);
}

TEST(Sim, R0IsHardwiredZero) {
  auto sim = sim_of({{mov(0, I(99)), mov(1, R(0))}, {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(0), 0u);
  EXPECT_EQ(sim.gpr(1), 0u);
}

TEST(Sim, MultiOpReadsBeforeWrites) {
  // {r1 <- r2 ; r2 <- r1} executed as one MultiOp swaps the registers.
  auto sim = sim_of({{mov(1, R(2)), mov(2, R(1))}, {halt()}});
  sim.set_gpr(1, 111);
  sim.set_gpr(2, 222);
  sim.run();
  EXPECT_EQ(sim.gpr(1), 222u);
  EXPECT_EQ(sim.gpr(2), 111u);
}

TEST(Sim, WawInBundleLaterOpWins) {
  auto sim = sim_of({{mov(1, I(10)), mov(1, I(20))}, {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(1), 20u);
}

TEST(Sim, CmppDualDestination) {
  auto sim = sim_of({{cmpp(Op::CMPP_LT, 1, 2, R(3), R(4))}, {halt()}});
  sim.set_gpr(3, 1);
  sim.set_gpr(4, 2);
  sim.run();
  EXPECT_TRUE(sim.pred(1));
  EXPECT_FALSE(sim.pred(2));
}

TEST(Sim, P0IsHardwiredTrue) {
  // CMPP writing its false-target to p0 must not clear p0.
  auto sim = sim_of({{cmpp(Op::CMPP_LT, 1, 0, R(3), R(4))},
                     {add(5, I(1), I(1), /*pred=*/0)},
                     {halt()}});
  sim.set_gpr(3, 1);
  sim.set_gpr(4, 2);  // cond true -> p0 would get "false" if writable
  sim.run();
  EXPECT_TRUE(sim.pred(0));
  EXPECT_EQ(sim.gpr(5), 2u);
}

TEST(Sim, PredicationNullifiesOps) {
  auto sim = sim_of({{cmpp(Op::CMPP_EQ, 1, 2, R(3), I(0))},
                     {add(4, I(0), I(10), /*pred=*/1),
                      add(5, I(0), I(20), /*pred=*/2)},
                     {halt()}});
  sim.set_gpr(3, 0);  // cond true: p1=1, p2=0
  sim.run();
  EXPECT_EQ(sim.gpr(4), 10u);
  EXPECT_EQ(sim.gpr(5), 0u);  // nullified
  EXPECT_EQ(sim.stats().ops_nullified, 1u);
}

TEST(Sim, NullifiedStoreDoesNotWriteMemory) {
  auto sim = sim_of({{mov(1, I(77)), mov(2, I(static_cast<std::int32_t>(kDataBase)))},
                     {cmpp(Op::CMPP_EQ, 1, 2, I(1), I(2))},  // false: p1=0
                     {stw(1, 2, 0, /*pred=*/1)},
                     {halt()}});
  sim.run();
  EXPECT_EQ(sim.memory().read_word(kDataBase), 0u);
}

TEST(Sim, NullifiedLoadDoesNotFault) {
  // A guarded load from a wild address must not trap when nullified.
  auto sim = sim_of({{mov(1, I(4))},  // unmapped low address
                     {cmpp(Op::CMPP_EQ, 1, 2, I(1), I(2))},  // p1=0
                     {ldw(3, 1, 0, /*pred=*/1)},
                     {halt()}});
  EXPECT_NO_THROW(sim.run());
}

TEST(Sim, LoadStoreWordAndByte) {
  const auto base = static_cast<std::int32_t>(kDataBase);
  auto sim = sim_of({{mov(1, I(base)), mov(2, I(0x1234))},
                     {stw(2, 1, 0)},
                     {ldw(3, 1, 0)},
                     {Instruction::make(Op::STB, 2, R(1), I(8))},
                     {Instruction::make(Op::LDBU, 4, R(1), I(8))},
                     {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(3), 0x1234u);
  EXPECT_EQ(sim.gpr(4), 0x34u);  // low byte of 0x1234
}

TEST(Sim, ByteLoadSignExtension) {
  const auto base = static_cast<std::int32_t>(kDataBase);
  auto sim = sim_of({{mov(1, I(base)), mov(2, I(0x80))},
                     {Instruction::make(Op::STB, 2, R(1), I(0))},
                     {Instruction::make(Op::LDB, 3, R(1), I(0))},
                     {Instruction::make(Op::LDBU, 4, R(1), I(0))},
                     {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(3), 0xFFFFFF80u);
  EXPECT_EQ(sim.gpr(4), 0x80u);
}

TEST(Sim, WordsAreBigEndianInMemory) {
  const auto base = static_cast<std::int32_t>(kDataBase);
  auto sim = sim_of({{mov(1, I(base)), mov(2, I(0x1234))},
                     {stw(2, 1, 0)},
                     {Instruction::make(Op::LDBU, 3, R(1), I(2))},
                     {Instruction::make(Op::LDBU, 4, R(1), I(3))},
                     {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(3), 0x12u);  // byte 2 holds bits 15..8
  EXPECT_EQ(sim.gpr(4), 0x34u);
}

TEST(Sim, SpeculativeLoadNeverFaults) {
  auto sim = sim_of({{mov(1, I(0))},
                     {Instruction::make(Op::LDWS, 2, R(1), I(0))},  // null
                     {Instruction::make(Op::LDWS, 3, R(1), I(5))},  // misaligned
                     {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(2), 0u);
  EXPECT_EQ(sim.gpr(3), 0u);
}

TEST(Sim, RegularLoadFaultsOnNull) {
  auto sim = sim_of({{mov(1, I(0))}, {ldw(2, 1, 0)}, {halt()}});
  EXPECT_THROW(sim.run(), SimError);
}

TEST(Sim, MisalignedWordAccessFaults) {
  auto sim = sim_of({{mov(1, I(static_cast<std::int32_t>(kDataBase) + 2))},
                     {ldw(2, 1, 0)},
                     {halt()}});
  EXPECT_THROW(sim.run(), SimError);
}

TEST(Sim, BranchLoopSumsCorrectly) {
  // r1 = sum of 1..5 via a BRCT loop.
  // b0: pbr b1 <- loop head; r2 = 5 (counter)
  // b1 (loop): r1 += r2 ; r2 -= 1
  // b2: cmpp.gt p1 <- r2, 0
  // b3: brct b1, p1
  // b4: out r1; halt
  auto sim = sim_of({{pbr(1, 1), mov(2, I(5))},
                     {add(1, R(1), R(2)), Instruction::make(Op::SUB, 2, R(2), I(1))},
                     {cmpp(Op::CMPP_GT, 1, 2, R(2), I(0))},
                     {brct(1, 1)},
                     {out(R(1)), halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(1), 15u);
  EXPECT_EQ(sim.stats().branches_taken, 4u);
  EXPECT_EQ(sim.stats().branches_not_taken, 1u);
}

TEST(Sim, BrcfBranchesOnFalse) {
  auto sim = sim_of({{pbr(1, 3), cmpp(Op::CMPP_EQ, 1, 2, I(1), I(2))},
                     {brcf(1, 1)},           // p1 false -> taken
                     {mov(5, I(111)), halt()},  // skipped
                     {mov(5, I(222)), halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(5), 222u);
}

TEST(Sim, BranchAndLinkAndReturn) {
  // Call bundle 3 (writes r7 = 42), return via BRR, then halt.
  auto sim = sim_of({{pbr(1, 3)},
                     {Instruction::make(Op::BRL, 2, R(1))},  // r2 <- 2
                     {out(R(7)), halt()},                    // return lands here
                     {mov(7, I(42))},
                     {Instruction::make(Op::BRR, 0, R(2))}});
  sim.run();
  EXPECT_EQ(sim.gpr(2), 2u);  // return bundle address
  ASSERT_EQ(sim.output().size(), 1u);
  EXPECT_EQ(sim.output()[0], 42u);
}

TEST(Sim, FirstTakenBranchInBundleWins) {
  ProcessorConfig cfg;
  auto sim = sim_of({{pbr(1, 2), pbr(2, 3)},
                     {bru(1), bru(2)},
                     {mov(5, I(1)), halt()},
                     {mov(5, I(2)), halt()}},
                    cfg);
  sim.run();
  EXPECT_EQ(sim.gpr(5), 1u);
}

TEST(Sim, HaltStopsExecution) {
  auto sim = sim_of({{halt()}, {mov(1, I(5))}});
  sim.run();
  EXPECT_TRUE(sim.halted());
  EXPECT_EQ(sim.gpr(1), 0u);
  EXPECT_FALSE(sim.step());  // stepping a halted machine is a no-op
}

TEST(Sim, PredicatedHaltIsNullified) {
  auto sim = sim_of({{cmpp(Op::CMPP_EQ, 1, 2, I(1), I(2))},  // p1 = false
                     {Instruction::make(Op::HALT, 0, {}, {}, 1)},
                     {mov(3, I(7))},
                     {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(3), 7u);
}

TEST(Sim, PcPastEndFaults) {
  auto sim = sim_of({{mov(1, I(1))}});  // no halt
  EXPECT_THROW(sim.run(), SimError);
}

TEST(Sim, BranchPastEndFaults) {
  auto sim = sim_of({{pbr(1, 7)}, {bru(1)}, {halt()}});
  EXPECT_THROW(sim.run(), SimError);
}

TEST(Sim, CycleLimitRaises) {
  SimOptions opts;
  opts.max_cycles = 100;
  // Infinite loop: bundle 0 branches to itself.
  Program p = make_program(ProcessorConfig{}, {{pbr(1, 1)}, {bru(1)}});
  EpicSimulator sim(std::move(p), {}, opts);
  EXPECT_THROW(sim.run(), SimError);
}

TEST(Sim, CustomOpExecutes) {
  ProcessorConfig cfg;
  cfg.custom_ops = {"rotr"};
  auto sim = sim_of({{mov(1, I(2))},
                     {Instruction::make(Op::CUSTOM0, 2, R(1), I(1))},
                     {halt()}},
                    cfg);
  sim.run();
  EXPECT_EQ(sim.gpr(2), 1u);  // rotr(2,1) == 1
}

TEST(Sim, UnsupportedOpFaults) {
  ProcessorConfig cfg;
  cfg.alu.has_div = false;
  // Build the program under a permissive config, then swap in the
  // trimmed config to mimic running foreign code on a lean core.
  Program p = make_program(ProcessorConfig{},
                           {{Instruction::make(Op::DIV, 1, R(2), I(3))},
                            {halt()}});
  p.config = cfg;
  EpicSimulator sim(std::move(p));
  EXPECT_THROW(sim.run(), SimError);
}

TEST(Sim, NarrowDatapathWraps) {
  ProcessorConfig cfg;
  cfg.datapath_width = 16;
  auto sim = sim_of({{mov(1, I(0x7FFF))},
                     {add(2, R(1), I(1))},
                     {halt()}},
                    cfg);
  sim.run();
  EXPECT_EQ(sim.gpr(2), 0x8000u);  // wraps within 16 bits, no bit 16
}

TEST(Sim, ResetRestoresInitialState) {
  auto sim = sim_of({{mov(1, I(5)), out(I(9))}, {halt()}});
  sim.run();
  EXPECT_EQ(sim.gpr(1), 5u);
  sim.reset();
  EXPECT_EQ(sim.gpr(1), 0u);
  EXPECT_FALSE(sim.halted());
  EXPECT_TRUE(sim.output().empty());
  sim.run();
  EXPECT_EQ(sim.gpr(1), 5u);
  EXPECT_EQ(sim.output().size(), 1u);
}

TEST(Sim, DataImageLoadsAtDataBase) {
  Program p = make_program(ProcessorConfig{},
                           {{mov(1, I(static_cast<std::int32_t>(kDataBase)))},
                            {ldw(2, 1, 0)},
                            {halt()}});
  p.data = {0xDE, 0xAD, 0xBE, 0xEF};
  EpicSimulator sim(std::move(p));
  sim.run();
  EXPECT_EQ(sim.gpr(2), 0xDEADBEEFu);
}

TEST(Sim, TraceCollectsBundles) {
  // The text trace is the timeline's issue track: one line per issued
  // bundle, NOP slots dropped, ops joined with ` || `.
  Program p = make_program(ProcessorConfig{},
                           {{mov(1, I(5)), mov(2, I(6))}, {halt()}});
  EpicSimulator sim(std::move(p));
  SimTimeline timeline(sim.config());
  sim.set_timeline(&timeline);
  sim.run();
  EXPECT_EQ(timeline.to_text(sim.program()),
            "cycle      0  bundle     0  mov r1, #5 || mov r2, #6\n"
            "cycle      1  bundle     1  halt\n");
}

}  // namespace
}  // namespace cepic
