// The config-aware machine-code verifier (src/mcheck): a seeded
// violation corpus with one hand-written fixture per rule (each
// asserting the exact rule id), clean passes over every paper workload
// across the differential configuration grid, the simulator
// cross-checks (mcheck's static stall findings predict the dynamic
// stall counters), the deliberately-broken-scheduler experiment (a
// port-budget violation the simulator merely absorbs but mcheck
// catches), and the pipeline::Service verify stage with its cached
// lint reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/static_cycles.hpp"
#include "asmtool/assembler.hpp"
#include "core/custom.hpp"
#include "core/program.hpp"
#include "mcheck/mcheck.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace cepic::mcheck {
namespace {

Program assemble(const char* text, const ProcessorConfig& cfg = {}) {
  return asmtool::assemble(text, cfg);
}

/// A syntactically minimal runnable skeleton the fixtures mutate: the
/// assembler enforces part of the contract at parse time, so fixtures
/// for rules it already rejects are built by patching an assembled
/// Program — exactly the situation mcheck exists for (hand-assembled
/// or corrupted binaries, and toolchain bugs downstream of the
/// assembler).
Program skeleton(const ProcessorConfig& cfg = {}) {
  return assemble(
      ".text\n.entry main\nmain:\nmov r1, #1 ;;\nhalt ;;\n", cfg);
}

TEST(Rules, StableIds) {
  EXPECT_EQ(rule_id(Rule::Structure), "mcheck.structure");
  EXPECT_EQ(rule_id(Rule::FieldWidth), "mcheck.field-width");
  EXPECT_EQ(rule_id(Rule::RegBounds), "mcheck.reg-bounds");
  EXPECT_EQ(rule_id(Rule::FuMissing), "mcheck.fu-missing");
  EXPECT_EQ(rule_id(Rule::FuOversubscribed), "mcheck.fu-oversubscribed");
  EXPECT_EQ(rule_id(Rule::PortBudget), "mcheck.port-budget");
  EXPECT_EQ(rule_id(Rule::Latency), "mcheck.latency");
  EXPECT_EQ(rule_id(Rule::MultiOpWaw), "mcheck.multiop-waw");
  EXPECT_EQ(rule_id(Rule::BranchTarget), "mcheck.branch-target");
  EXPECT_EQ(rule_id(Rule::BtrDiscipline), "mcheck.btr-discipline");
}

// ------------------------------------------------ the violation corpus

TEST(Fixtures, CleanSkeletonIsClean) {
  const Report rep = check_program(skeleton());
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.diags.empty()) << rep.to_text();
}

TEST(Fixtures, PortBudgetOverflow) {
  // Four 3-port ALU ops in one MultiOp need 12 port operations against
  // the default budget of 8 — legal (the controller stalls issue,
  // paper §3.2) but a schedule-quality defect, hence a warning.
  // (The two warm-up MultiOps matter for the dynamic cross-check: at
  // cycle 0 every register's ready-cycle equals the issue cycle, so the
  // simulator's forwarding satisfies all reads for free.)
  const Program p = assemble(
      ".text\n.entry main\nmain:\n"
      "mov r20, #0 ;;\n"
      "mov r21, #0 ;;\n"
      "add r1, r2, r3 ; add r4, r5, r6 ; add r7, r8, r9 ; "
      "add r10, r11, r12 ;;\n"
      "halt ;;\n");
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::PortBudget)) << rep.to_text();
  EXPECT_EQ(rep.count(Severity::Error), 0u) << rep.to_text();
  EXPECT_GE(rep.warning_count(), 1u);
  EXPECT_TRUE(rep.clean());  // warning only...
  Report werror = check_program(p, CheckOptions{.werror = true});
  EXPECT_FALSE(werror.clean());  // ...until -Werror promotes it

  // Cross-check: the simulator pays for exactly this finding.
  EpicSimulator sim(p);
  sim.run();
  EXPECT_GT(sim.stats().stall_reg_ports, 0u);
}

TEST(Fixtures, FieldWidthLiteralTooWide) {
  // 40000 exceeds the signed 16-bit SRC field of the default format
  // (paper §3.1). The assembler rejects the literal at parse time, so
  // patch an assembled program — the binary-level check must catch it.
  Program p = skeleton();
  p.code[0].src1 = Operand::imm(40000);
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::FieldWidth)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, RegBoundsExceedsFile) {
  ProcessorConfig cfg;
  cfg.num_gprs = 32;
  Program p = skeleton(cfg);
  p.code[0].src1 = Operand::r(40);  // r40 on a 32-GPR machine
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::RegBounds)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, FuMissingDivOnDivlessConfig) {
  // The paper's primary customisation example: trim DIV/REM from the
  // ALUs. A program carrying a DIV is a binary for the wrong machine.
  ProcessorConfig cfg;
  cfg.alu.has_div = false;
  Program p = skeleton(cfg);
  p.code[0] = Instruction::make(Op::DIV, 4, Operand::r(2), Operand::r(3));
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::FuMissing)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, FuOversubscribedTwoLoadsOneLsu) {
  // The configuration has one LSU; two loads in one MultiOp cannot
  // issue. The assembler enforces this for text input, but nothing
  // else did for directly-constructed binaries (the simulator executes
  // them happily) — the real verification gap mcheck closes.
  Program p = skeleton();
  p.code[0] = Instruction::make(Op::LDW, 4, Operand::r(1), Operand::imm(0));
  p.code[1] = Instruction::make(Op::LDW, 5, Operand::r(1), Operand::imm(4));
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::FuOversubscribed)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, BranchTargetPastEnd) {
  Program p = skeleton();
  p.code[0] = Instruction::make(Op::PBR, 0, Operand::imm(99));
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::BranchTarget)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, BtrDisciplineBranchWithoutPrepare) {
  // `bru b0` with no PBR anywhere preparing b0: the branch consumes an
  // undefined branch-target register (paper §3.2's prepare-to-branch
  // discipline).
  const Program p = assemble(
      ".text\n.entry main\nmain:\nbru b0 ;;\nhalt ;;\n");
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::BtrDiscipline)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, LatencyUseBeforeReady) {
  // ldw takes load_latency cycles; the very next MultiOp consumes the
  // value, so the scoreboard must stall — statically visible because
  // the scheduler emits latency gaps as explicit empty MultiOps.
  ProcessorConfig cfg;
  cfg.load_latency = 3;
  const Program p = assemble(
      ".text\n.entry main\nmain:\n"
      "mov r1, #64 ;;\n"
      ";;\n"  // gap so the mov->ldw pair itself is clean
      "ldw r5, r1, #0 ;;\n"
      "add r6, r5, r5 ;;\n"
      "halt ;;\n",
      cfg);
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::Latency)) << rep.to_text();
  EXPECT_EQ(rep.count(Severity::Error), 0u) << rep.to_text();

  // Cross-check: the simulator's scoreboard pays for the finding (the
  // program still computes the right value — interlocks, paper §2).
  EpicSimulator sim(p);
  sim.run();
  EXPECT_GT(sim.stats().stall_scoreboard, 0u);
  EXPECT_EQ(sim.gpr(6), 0u);  // 2 * mem[64] with zeroed memory
}

TEST(Fixtures, LatencySameBundleStaleRead) {
  // Slot 1 reads r1 which slot 0 writes: MultiOp semantics read the
  // pre-MultiOp value (legal — the register-swap idiom), but flagged
  // because scheduled code never intends it.
  const Program p = assemble(
      ".text\n.entry main\nmain:\n"
      "mov r1, #7 ; add r2, r1, #1 ;;\n"
      "halt ;;\n");
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::Latency)) << rep.to_text();
  EXPECT_EQ(rep.count(Severity::Error), 0u) << rep.to_text();
}

TEST(Fixtures, MultiOpWawDoubleWrite) {
  const Program p = assemble(
      ".text\n.entry main\nmain:\n"
      "mov r1, #1 ; mov r1, #2 ;;\n"
      "halt ;;\n");
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::MultiOpWaw)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, StructureRaggedCode) {
  Program p = skeleton();
  p.code.push_back(Instruction::halt());  // no longer whole MultiOps
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::Structure)) << rep.to_text();
  EXPECT_GE(rep.error_count(), 1u);
}

TEST(Fixtures, StructureEntryPastEnd) {
  Program p = skeleton();
  p.entry_bundle = 100;
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::Structure)) << rep.to_text();
}

// ------------------------------------------ one validity rule, all layers

TEST(SharedValidity, EveryLayerGivesTheSameRegisterRangeText) {
  // `mov r40, #1` on a 16-GPR machine. The assembler, mcheck, every
  // simulator tier and the static cycle predictor word the defect
  // through core's check_instruction, so all of them say the same.
  const std::string text = "dest1: r40 exceeds the 16-register file";
  ProcessorConfig cfg;
  cfg.num_gprs = 16;

  try {
    assemble(".text\n.entry main\nmain:\nmov r40, #1 ;;\nhalt ;;\n", cfg);
    ADD_FAILURE() << "assembler accepted r40 on a 16-GPR machine";
  } catch (const AsmError& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
        << e.what();
  }

  Program p = skeleton(cfg);
  p.code[0].dest1 = 40;  // bundle 0 slot 0: mov r40, #1
  const Report rep = check_program(p);
  ASSERT_EQ(rep.diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(rule_id(rep.diags[0].rule), "mcheck.reg-bounds");
  EXPECT_EQ(rep.diags[0].message, text);

  for (const ExecTier tier :
       {ExecTier::Interp, ExecTier::Decode, ExecTier::Threaded}) {
    SCOPED_TRACE(to_string(tier));
    SimOptions options;
    options.exec_tier = tier;
    try {
      EpicSimulator sim(p, {}, options);
      ADD_FAILURE() << "simulator accepted r40 on a 16-GPR machine";
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), "bundle 0 slot 0: " + text);
    }
  }

  const analysis::StaticCycleReport predicted = analysis::predict_cycles(p);
  EXPECT_TRUE(predicted.fault);
  EXPECT_EQ(predicted.reason, "bundle 0 slot 0: " + text);
}

// ---------------------------------------------------- report machinery

TEST(Report, RuleMaskDisablesFindings) {
  Program p = skeleton();
  p.code[0].src1 = Operand::r(200);
  EXPECT_TRUE(check_program(p).has_rule(Rule::RegBounds));
  const CheckOptions only_width = CheckOptions::only({Rule::FieldWidth});
  EXPECT_TRUE(check_program(p, only_width).diags.empty());
}

TEST(Report, DiagnosticCarriesLocationAndLabel) {
  ProcessorConfig cfg;
  cfg.num_gprs = 32;
  Program p = skeleton(cfg);
  p.code[0].src1 = Operand::r(40);
  const Report rep = check_program(p);
  ASSERT_FALSE(rep.diags.empty());
  const Diagnostic& d = rep.diags.front();
  EXPECT_EQ(d.bundle, 0u);
  EXPECT_EQ(d.slot, 0);
  EXPECT_EQ(d.label, "main");
  EXPECT_NE(d.to_string().find("[mcheck.reg-bounds]"), std::string::npos);
}

TEST(Report, JsonShape) {
  Program p = skeleton();
  p.code[0].src1 = Operand::imm(1 << 20);
  const std::string json = check_program(p).to_json();
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"mcheck.field-width\""), std::string::npos)
      << json;
}

TEST(Report, InvalidConfigIsAStructureDiagnosticNotAThrow) {
  Program p = skeleton();
  p.config.issue_width = 0;
  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::Structure)) << rep.to_text();
}

// ----------------------------------- the architectural contract holds

/// The differential grid every generated program is checked across.
std::vector<ProcessorConfig> differential_grid() {
  std::vector<ProcessorConfig> grid;
  for (unsigned alus = 1; alus <= 4; ++alus) {
    for (int fwd = 0; fwd <= 1; ++fwd) {
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      cfg.forwarding = fwd != 0;
      grid.push_back(cfg);
    }
  }
  return grid;
}

TEST(SchedulerContract, AllWorkloadsLintCleanAcrossTheGrid) {
  pipeline::Service service;  // in-memory store: each workload IR once
  for (const workloads::Workload& w : workloads::all_workloads(8, 2, 8, 6)) {
    for (const ProcessorConfig& cfg : differential_grid()) {
      const Program p = service.compile_program(w.minic_source, cfg);
      const Report rep =
          check_program(p, CheckOptions{.werror = true});
      EXPECT_TRUE(rep.clean()) << w.name << " on " << cfg.summary() << "\n"
                               << rep.to_text();
    }
  }
}

TEST(SchedulerContract, SchedulerOutputHasNoStallsAtRuntime) {
  // The static claim, validated dynamically: scheduled code never
  // scoreboard- or port-stalls (gap cycles are explicit NOP MultiOps).
  pipeline::Options opts;
  opts.sim.mem_size = 1u << 20;
  pipeline::Service service(opts);
  const workloads::Workload w = workloads::make_dct(8);
  const EpicSimulator sim = service.run(w.minic_source, ProcessorConfig{});
  EXPECT_EQ(sim.stats().stall_scoreboard, 0u);
  EXPECT_EQ(sim.stats().stall_reg_ports, 0u);
  EXPECT_EQ(sim.output(), w.expected_output);
}

TEST(SchedulerContract, BrokenBudgetIsCaughtByMcheckNotTheSimulator) {
  // Break the scheduler's port-budget accounting through the test-only
  // hook (it believes 32 ports exist; the machine has 8). The simulator
  // cannot catch this — the interlocked hardware just stalls and still
  // computes the right answer — but mcheck flags the overscheduled
  // MultiOps statically.
  const workloads::Workload w = workloads::make_sha(8);
  ProcessorConfig cfg;  // default: 4 ALUs, budget 8, forwarding

  pipeline::Options broken;
  broken.codegen.backend.test_override_port_budget = 32;
  broken.sim.mem_size = 1u << 20;
  pipeline::Service broken_service(broken);
  const Program p = broken_service.compile_program(w.minic_source, cfg);

  const Report rep = check_program(p);
  ASSERT_TRUE(rep.has_rule(Rule::PortBudget)) << rep.to_text();
  EXPECT_FALSE(check_program(p, CheckOptions{.werror = true}).clean());

  // The simulator accepts and correctly executes the broken schedule.
  const EpicSimulator sim = broken_service.run(w.minic_source, cfg);
  EXPECT_EQ(sim.output(), w.expected_output);
  EXPECT_GT(sim.stats().stall_reg_ports, 0u);
}

}  // namespace
}  // namespace cepic::mcheck
