// Pins the list scheduler's output bytes and its timing edge cases.
//
// ScheduleGolden hashes the backend's Listing, printed as assembly, over
// the workload corpus (default and LICM pipelines) × a codegen grid
// (ALUs 1-4 × issue 1-4 × ports 4/8/16 × forwarding on/off, plus a
// load-latency sweep), seeded straight-line programs (unoptimised,
// optimised, 16 GPRs, one ALU) and the IR fuzz corpus. Any change to a
// schedule changes a digest. Regenerate tests/golden/schedule_digests.txt
// by rerunning the test with CEPIC_REGEN_GOLDEN=1 in the environment.
// Every corpus entry also checks the direct path (asmtool::encode of
// compile_ir_to_listing) against the text path (asmtool::assemble of
// the printed Listing).
//
// The Schedule.* cases each pin one rule the dependence graph or the
// packer must get exactly right, on a hand-built block.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "asmtool/assembler.hpp"
#include "backend/backend.hpp"
#include "core/custom.hpp"
#include "frontend/irgen.hpp"
#include "ir/verify.hpp"
#include "mdes/mdes.hpp"
#include "opt/opt.hpp"
#include "serial/serial.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

#include "test_util.hpp"

namespace cepic::backend {
namespace {

using testutil::I;
using testutil::R;

/// CEPX bytes of `build()`, or nullopt when it throws.
template <typename Build>
std::optional<std::vector<std::uint8_t>> program_bytes(const Build& build) {
  try {
    return serial::encode_program(build());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Digest of the printed Listing. Also checks that encoding the
/// backend's Listing directly gives the Program that assembling the text
/// gives (or that both throw).
std::string asm_digest(const ir::Module& m, const ProcessorConfig& cfg) {
  std::optional<std::string> text;
  try {
    text = asmtool::to_text(compile_ir_to_listing(m, cfg));
  } catch (const std::exception&) {
  }
  const auto direct = program_bytes(
      [&] { return asmtool::encode(compile_ir_to_listing(m, cfg), cfg); });
  const auto via_text = program_bytes([&] {
    if (!text) throw Error("no assembly");
    return asmtool::assemble(*text, cfg);
  });
  EXPECT_TRUE(direct == via_text)
      << "direct and text paths disagree on " << cfg.summary();
  if (!text) return "throw";  // collapse; error text may vary
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(*text)));
  return buf;
}

ir::Module optimized(ir::Module m, bool licm) {
  opt::OptOptions opts;
  opts.licm = licm;
  opt::optimize(m, opts);
  return m;
}

// ------------------------------------------------ golden digest corpus

TEST(ScheduleGolden, DigestsMatchCommittedCorpus) {
  std::ostringstream fresh;
  std::vector<workloads::Workload> ws = workloads::all_workloads(16, 8, 8, 8);
  ws.push_back(workloads::make_dct(16));  // the BM_EpicBackend module
  for (const workloads::Workload& w : ws) {
    const ir::Module base = minic::compile_to_ir(w.minic_source);
    for (const bool licm : {false, true}) {
      const ir::Module m = optimized(base, licm);
      const std::string tag =
          cat("workload ", w.name, licm ? " licm" : " default");
      for (unsigned alus = 1; alus <= 4; ++alus) {
        for (unsigned issue = 1; issue <= 4; ++issue) {
          for (const unsigned ports : {4u, 8u, 16u}) {
            for (const bool fwd : {false, true}) {
              ProcessorConfig cfg;
              cfg.num_alus = alus;
              cfg.issue_width = issue;
              cfg.reg_port_budget = ports;
              cfg.forwarding = fwd;
              fresh << tag << " a" << alus << " i" << issue << " p" << ports
                    << " f" << fwd << " " << asm_digest(m, cfg) << "\n";
            }
          }
        }
      }
      for (unsigned lat = 1; lat <= 8; ++lat) {
        ProcessorConfig cfg;
        cfg.load_latency = lat;
        fresh << tag << " l" << lat << " " << asm_digest(m, cfg) << "\n";
      }
    }
  }

  for (const int statements : {300, 2000}) {
    const ir::Module base = minic::compile_to_ir(
        workloads::make_straight_line(static_cast<std::uint64_t>(statements),
                                      statements));
    const ir::Module m = optimized(base, false);
    const std::string tag = cat("straight ", statements);
    ProcessorConfig gpr16;
    gpr16.num_gprs = 16;
    ProcessorConfig narrow;
    narrow.num_alus = 1;
    narrow.issue_width = 2;
    narrow.reg_port_budget = 4;
    fresh << tag << " unopt " << asm_digest(base, {}) << "\n"
          << tag << " opt " << asm_digest(m, {}) << "\n"
          << tag << " opt-gpr16 " << asm_digest(m, gpr16) << "\n"
          << tag << " opt-a1 " << asm_digest(m, narrow) << "\n";
  }

  // The first 1000 fuzz modules that verify (the generator is
  // unconstrained; most seeds yield modules the verifier rejects).
  for (std::uint64_t seed = 1, kept = 0; kept < 1000; ++seed) {
    Prng rng(seed);
    ir::Module m = testutil::random_module(rng);
    try {
      ir::verify_module(m);
    } catch (const InternalError&) {
      continue;
    }
    ++kept;
    // Vary the machine with the seed so the corpus also covers narrow
    // and port-starved configurations.
    ProcessorConfig cfg;
    cfg.num_alus = 1 + static_cast<unsigned>(seed % 4);
    cfg.issue_width = 1 + static_cast<unsigned>((seed / 4) % 4);
    cfg.reg_port_budget = seed % 3 == 0 ? 4 : 8;
    cfg.forwarding = seed % 5 != 0;
    fresh << "fuzz " << seed << " " << asm_digest(m, cfg) << "\n";
  }

  const std::string path =
      std::string(CEPIC_TEST_DIR) + "/golden/schedule_digests.txt";
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
      << "emitted assembly drifted from the committed digests; if the "
         "change is intentional, update tests/golden/schedule_digests.txt";
}

// ------------------------------------------------ hand-built edge cases

/// An op tagged through MInst::target, which the scheduler copies into
/// the op's src1_sym but never reads, so the test can find it in the
/// bundles afterwards.
MInst tagged(const Instruction& inst, const char* tag, bool barrier = false) {
  MInst mi;
  mi.inst = inst;
  mi.target = tag;
  mi.is_barrier = barrier;
  return mi;
}

/// Schedules one block and returns each tagged op's bundle (= cycle);
/// a tag placed twice fails the test.
std::map<std::string, unsigned> cycles_of(
    std::vector<MInst> insts, const ProcessorConfig& cfg,
    unsigned port_budget = 0, const CustomOpTable* custom = nullptr) {
  MFunc fn;
  fn.name = "t";
  fn.blocks.push_back({"", std::move(insts)});
  const Mdes mdes(cfg, custom);
  const ScheduledFunc sf = schedule_function(fn, mdes, cfg, true, port_budget);
  std::map<std::string, unsigned> out;
  const auto& bundles = sf.blocks.at(0).bundles;
  for (unsigned c = 0; c < bundles.size(); ++c) {
    for (const asmtool::Listing::Op& op : bundles[c]) {
      EXPECT_TRUE(out.emplace(op.src1_sym, c).second)
          << op.src1_sym << " placed twice";
    }
  }
  return out;
}

TEST(Schedule, KilledWriterStillDelaysLaterReader) {
  // The load's 4-cycle latency outlives the add that overwrites r20: a
  // reader of r20 waits for both writers (the scoreboard would stall).
  ProcessorConfig cfg;
  cfg.load_latency = 4;
  const auto c = cycles_of({tagged(testutil::ldw(20, 21, 0), "ld"),
                            tagged(testutil::add(20, R(0), I(1)), "kill"),
                            tagged(testutil::add(22, R(20), I(1)), "use")},
                           cfg);
  EXPECT_EQ(c.at("ld"), 0u);
  EXPECT_EQ(c.at("kill"), 1u);
  EXPECT_EQ(c.at("use"), 4u);
}

TEST(Schedule, RawLatencyHoldsAcrossCallBarrier) {
  // ld -> brl is a zero-delay control edge and brl -> add only one
  // cycle, but add still waits out the load latency.
  ProcessorConfig cfg;
  cfg.load_latency = 3;
  const auto c = cycles_of(
      {tagged(testutil::ldw(20, 21, 0), "ld"),
       tagged(Instruction::make(Op::BRL, CallConv::kRa, R(1)), "call",
              /*barrier=*/true),
       tagged(testutil::add(22, R(20), I(1)), "use")},
      cfg);
  EXPECT_EQ(c.at("ld"), 0u);
  EXPECT_EQ(c.at("call"), 0u);
  EXPECT_EQ(c.at("use"), 3u);
}

TEST(Schedule, AntiDependenceSharesACycle) {
  // MultiOps read before they write: the overwrite of r20 may issue in
  // the same bundle as the last read of its old value.
  const auto c = cycles_of({tagged(testutil::add(21, R(20), I(1)), "read"),
                            tagged(testutil::add(20, R(0), I(5)), "write")},
                           ProcessorConfig{});
  EXPECT_EQ(c.at("read"), 0u);
  EXPECT_EQ(c.at("write"), 0u);
}

TEST(Schedule, ForwardedReadSharesCycleWithRewrite) {
  // def writes r20 in cycle 0. In cycle 1, fwd reads r20 off the
  // forwarding path (no port) while redef rewrites r20, so both fit a
  // 4-port budget (1 + 3). Without forwarding they need 2 + 3 ports.
  const std::vector<MInst> block = {
      tagged(testutil::add(20, R(22), R(23)), "def"),
      tagged(testutil::add(21, R(20), I(1)), "fwd"),
      tagged(testutil::add(20, R(24), R(25)), "redef"),
      tagged(testutil::add(26, R(20), R(0)), "use")};
  ProcessorConfig cfg;
  const auto on = cycles_of(block, cfg, /*port_budget=*/4);
  EXPECT_EQ(on.at("def"), 0u);
  EXPECT_EQ(on.at("fwd"), 1u);
  EXPECT_EQ(on.at("redef"), 1u);
  EXPECT_EQ(on.at("use"), 2u);
  cfg.forwarding = false;
  const auto off = cycles_of(block, cfg, /*port_budget=*/4);
  EXPECT_EQ(off.at("fwd"), 1u);
  EXPECT_EQ(off.at("redef"), 2u);
  EXPECT_EQ(off.at("use"), 3u);
}

TEST(Schedule, PortBudgetSkipsToLowerPriorityOp) {
  // Two 3-port ops head long chains; the 1-port mov has no successors.
  // After the first 3-port op a 4-port budget has room only for the mov.
  const auto c = cycles_of(
      {tagged(testutil::add(20, R(21), R(22)), "x"),
       tagged(testutil::add(23, R(24), R(25)), "y"),
       tagged(testutil::mov(26, I(5)), "z"),
       tagged(testutil::add(27, R(20), I(1)), "x1"),
       tagged(testutil::add(28, R(27), I(1)), "x2"),
       tagged(testutil::add(29, R(23), I(1)), "y1")},
      ProcessorConfig{}, /*port_budget=*/4);
  EXPECT_EQ(c.at("x"), 0u);
  EXPECT_EQ(c.at("z"), 0u);
  EXPECT_EQ(c.at("y"), 1u);
}

TEST(Schedule, ZeroDelaySuccessorFillsSameBundle) {
  // The branch depends on the add with delay 0: it becomes ready only
  // once the add is placed, and must still join cycle 0's bundle.
  const auto c = cycles_of({tagged(testutil::add(20, R(21), I(1)), "add"),
                            tagged(testutil::bru(1), "br")},
                           ProcessorConfig{});
  EXPECT_EQ(c.at("add"), 0u);
  EXPECT_EQ(c.at("br"), 0u);
}

TEST(Schedule, ZeroLatencyResultIsForwardedToAWaitingReader) {
  // The reader of a zero-latency custom op is ready in the op's own
  // cycle, but the only ALU is taken. In the next cycle its read of r20
  // comes off the forwarding path, which leaves room in a 4-port budget
  // for the 3-port load beside it.
  CustomOp zero;
  zero.name = "zero";
  zero.eval = [](std::uint32_t a, std::uint32_t b) { return a ^ b; };
  zero.latency = 0;
  CustomOpTable custom;
  custom.install(0, zero);
  ProcessorConfig cfg;
  cfg.num_alus = 1;
  cfg.custom_ops = {"zero"};
  const auto c = cycles_of(
      {tagged(Instruction::make(Op::CUSTOM0, 20, R(22), R(23)), "op"),
       tagged(testutil::add(21, R(20), I(1)), "use"),
       tagged(Instruction::make(Op::LDW, 24, R(25), R(26)), "ld")},
      cfg, /*port_budget=*/4, &custom);
  EXPECT_EQ(c.at("op"), 0u);
  EXPECT_EQ(c.at("use"), 1u);
  EXPECT_EQ(c.at("ld"), 1u);
}

TEST(Schedule, ForwardingRefilesAReadyOpOutAndBackIn) {
  // On one ALU, `use` is ready from cycle 0 (zero-latency producer) but
  // loses every cycle to the higher k chain until cycle 3. Its port cost
  // drops while r20 is forwarded (cycle 1) and rises again after
  // (cycle 2), so it is refiled out of its ready bucket and back in; it
  // must still be placed exactly once.
  CustomOp zero;
  zero.name = "zero";
  zero.eval = [](std::uint32_t a, std::uint32_t b) { return a ^ b; };
  zero.latency = 0;
  CustomOpTable custom;
  custom.install(0, zero);
  ProcessorConfig cfg;
  cfg.num_alus = 1;
  cfg.custom_ops = {"zero"};
  const auto c = cycles_of(
      {tagged(Instruction::make(Op::CUSTOM0, 20, R(22), R(23)), "op"),
       tagged(testutil::add(21, R(20), I(1)), "use"),
       tagged(testutil::add(40, R(20), I(1)), "k1"),
       tagged(testutil::add(41, R(40), I(1)), "k2"),
       tagged(testutil::add(42, R(41), I(1)), "k3")},
      cfg, /*port_budget=*/0, &custom);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.at("op"), 0u);
  EXPECT_EQ(c.at("k1"), 1u);
  EXPECT_EQ(c.at("k2"), 2u);
  EXPECT_EQ(c.at("use"), 3u);
  EXPECT_EQ(c.at("k3"), 4u);
}

}  // namespace
}  // namespace cepic::backend
