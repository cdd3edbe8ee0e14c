// Functional tests of the EPIC simulator: operation semantics, MultiOp
// read-before-write, predication, branching, memory, custom ops, faults,
// and the data memory's lazily zeroed mapping.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>

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

// ------------------------------------------------------- data memory

/// Pages of `mem` the kernel has backed so far (mincore over its
/// mapping, which starts page-aligned at exec_data()).
std::size_t resident_pages(DataMemory& mem) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((mem.size() + page - 1) / page);
  EXPECT_EQ(mincore(mem.exec_data(), mem.size(), vec.data()), 0);
  return static_cast<std::size_t>(std::count_if(
      vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

constexpr std::size_t kFourMiB = std::size_t{1} << 22;

TEST(Memory, FreshMemoryReadsZeroAtEveryPageEdge) {
  const DataMemory mem(kFourMiB);
  for (std::size_t lo = 0; lo < mem.size(); lo += 4096) {
    const auto first = static_cast<std::uint32_t>(std::max<std::size_t>(lo, kDataBase));
    const auto last = static_cast<std::uint32_t>(lo + 4095);
    ASSERT_EQ(mem.read_byte(first), 0u) << first;
    ASSERT_EQ(mem.read_byte(last), 0u) << last;
    ASSERT_EQ(mem.read_word(last - 3), 0u) << last;
  }
  EXPECT_THROW((void)mem.read_byte(static_cast<std::uint32_t>(kFourMiB)),
               SimError);
  EXPECT_EQ(mem.read_word_speculative(static_cast<std::uint32_t>(kFourMiB)),
            0u);
}

TEST(Memory, ConstructionWritesNoPage) {
  // 4 MiB of zeroes cost nothing until a run writes them.
  DataMemory mem(kFourMiB);
  EXPECT_EQ(resident_pages(mem), 0u);
  mem.write_byte(kDataBase, 1);
  mem.write_word(static_cast<std::uint32_t>(kFourMiB - 4), 2);
  EXPECT_EQ(resident_pages(mem), 2u);

  // A simulator's start-up touches only the pages of its data image.
  Program p = make_program(ProcessorConfig{}, {{halt()}});
  p.data.assign(5000, 0x5a);  // kDataBase + 5000 spans two pages
  EpicSimulator sim(std::move(p));
  EXPECT_EQ(resident_pages(sim.memory()), 2u);
}

TEST(Memory, ResetRezeroesExactlyTheScatteredWrites) {
  DataMemory mem(std::size_t{1} << 20);
  const std::uint32_t words[] = {kDataBase, 3 * 4096 + 16, 100 * 4096 + 4092,
                                 (1u << 20) - 4};
  for (const std::uint32_t a : words) mem.write_word(a, 0xa5a5a5a5u ^ a);
  mem.write_byte(200 * 4096 - 1, 0x77);  // the last byte of a page
  mem.exec_data()[57 * 4096 + 9] = 0x33;  // a direct store, as the
  mem.mark_written(57 * 4096 + 9, 1);     // threaded tier makes them
  const std::size_t written = resident_pages(mem);
  EXPECT_EQ(written, 6u);

  mem.reset();
  // reset() wrote only the dirty pages: no clean page was touched.
  EXPECT_EQ(resident_pages(mem), written);
  const DataMemory& view = mem;
  const std::span<const std::uint8_t> bytes = view.raw();
  for (std::size_t a = 0; a < bytes.size(); ++a) {
    ASSERT_EQ(bytes[a], 0u) << "address " << a;
  }
}

TEST(Memory, CopyIsDeepAndAMovedFromMemoryIsEmpty) {
  DataMemory a(std::size_t{1} << 16);
  a.write_word(kDataBase, 0x01020304u);
  a.write_byte(60000, 7);

  DataMemory b(a);
  EXPECT_EQ(b.size(), a.size());
  a.write_word(kDataBase, 0);
  EXPECT_EQ(b.read_word(kDataBase), 0x01020304u);
  EXPECT_EQ(b.read_byte(60000), 7u);
  b.reset();  // the copy carries the dirty map too
  EXPECT_EQ(b.read_byte(60000), 0u);
  EXPECT_EQ(b.read_word(kDataBase), 0u);

  DataMemory c(4096);
  c = a;
  EXPECT_EQ(c.size(), a.size());
  EXPECT_EQ(c.read_byte(60000), 7u);

  DataMemory d(std::move(a));
  EXPECT_EQ(d.read_byte(60000), 7u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_THROW((void)a.read_word(kDataBase), SimError);
  a.reset();
  c = std::move(d);
  EXPECT_EQ(c.read_byte(60000), 7u);
  const DataMemory e(d);  // a copy of a moved-from memory is empty too
  EXPECT_EQ(e.size(), 0u);
}

TEST(Memory, GuardPageFaultsAnOverrun) {
  DataMemory mem(kFourMiB);
  std::uint8_t* const end = mem.exec_data() + mem.size();
  EXPECT_DEATH(*static_cast<volatile std::uint8_t*>(end) = 1, "");
}

}  // namespace
}  // namespace cepic
