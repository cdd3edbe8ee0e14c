// Backend unit tests: lowering shapes, register allocation invariants,
// scheduler dependence/resource correctness.
#include <gtest/gtest.h>

#include <set>

#include "backend/backend.hpp"
#include "frontend/irgen.hpp"
#include "ir/parse.hpp"
#include "ir/verify.hpp"
#include "opt/opt.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"

namespace cepic::backend {
namespace {

struct Lowered {
  ir::Module module;
  MFunc mfunc;
  ProcessorConfig config;
};

Lowered lower(std::string_view src, const char* fn_name,
              ProcessorConfig cfg = {}) {
  Lowered out;
  out.module = minic::compile_to_ir(src);
  out.config = cfg;
  const Mdes mdes(cfg);
  const ir::DataLayout layout =
      ir::layout_globals(out.module, BackendOptions{}.stack_top);
  out.mfunc = lower_function(*out.module.find_function(fn_name), out.module,
                             layout, mdes, cfg);
  return out;
}

std::size_t count_op(const MFunc& fn, Op op) {
  std::size_t n = 0;
  for (const MBlock& b : fn.blocks) {
    for (const MInst& mi : b.insts) n += mi.inst.op == op ? 1 : 0;
  }
  return n;
}

TEST(Lowering, PrologueSavesRaAndMapsParams) {
  const Lowered l = lower("int f(int a, int b) { return a + b; }", "f");
  const MBlock& entry = l.mfunc.blocks[0];
  EXPECT_EQ(entry.label, "fn_f");
  // sp adjust, ra save, two param movs, add, rv mov, epilogue.
  EXPECT_EQ(entry.insts[0].frame_sign, -1);
  EXPECT_EQ(entry.insts[1].inst.op, Op::STW);
  EXPECT_EQ(entry.insts[2].inst.op, Op::MOV);
  EXPECT_EQ(entry.insts[2].inst.src1.reg, CallConv::kArg0);
  EXPECT_EQ(entry.insts[3].inst.src1.reg, CallConv::kArg0 + 1);
  EXPECT_EQ(entry.insts.back().inst.op, Op::BRR);
  EXPECT_TRUE(entry.insts.back().is_barrier);
}

TEST(Lowering, CmpFeedingBranchBecomesPredicate) {
  const Lowered l =
      lower("int f(int a) { if (a < 5) return 1; return 2; }", "f");
  // The compare lowers to a CMPP, and no 0/1 materialisation happens.
  EXPECT_EQ(count_op(l.mfunc, Op::CMPP_LT), 1u);
  EXPECT_GE(count_op(l.mfunc, Op::BRCT), 1u);
}

TEST(Lowering, CmpUsedAsValueMaterialises) {
  const Lowered l = lower("int f(int a) { return a < 5; }", "f");
  EXPECT_EQ(count_op(l.mfunc, Op::CMPP_LT), 1u);
  // Two MOVs (0 then guarded 1) beyond the param/rv plumbing.
  EXPECT_GE(count_op(l.mfunc, Op::MOV), 4u);
}

TEST(Lowering, LargeConstantsAreBuilt) {
  const Lowered l = lower("int f() { return 0x12345678; }", "f");
  EXPECT_GE(count_op(l.mfunc, Op::SHL), 1u);
  EXPECT_GE(count_op(l.mfunc, Op::OR), 1u);
}

TEST(Lowering, CallSequence) {
  const Lowered l = lower(
      "int g(int x) { return x; }\n"
      "int f() { return g(7); }",
      "f");
  EXPECT_EQ(count_op(l.mfunc, Op::BRL), 1u);
  EXPECT_EQ(count_op(l.mfunc, Op::PBR), 1u);
  bool found_arg_mov = false;
  for (const MBlock& b : l.mfunc.blocks) {
    for (const MInst& mi : b.insts) {
      if (mi.inst.op == Op::MOV && mi.inst.dest1 == CallConv::kArg0) {
        found_arg_mov = true;
      }
      if (mi.inst.op == Op::PBR) {
        EXPECT_EQ(mi.target, "fn_g");
      }
    }
  }
  EXPECT_TRUE(found_arg_mov);
}

TEST(Lowering, RejectsTooManyArgs) {
  const char* src =
      "int g(int a,int b,int c,int d,int e,int f,int h,int i,int j)"
      " { return a; }\n"
      "int f() { return g(1,2,3,4,5,6,7,8,9); }";
  EXPECT_THROW(lower(src, "f"), Error);
}

TEST(Lowering, RejectsDivOnTrimmedAlu) {
  ProcessorConfig cfg;
  cfg.alu.has_div = false;
  EXPECT_THROW(lower("int f(int a) { return a / 3; }", "f", cfg), Error);
}

TEST(Lowering, ErrorsNameTheFunctionAndBlock) {
  // Diagnostics must locate the failure in the user's program, not just
  // state the missing capability.
  ProcessorConfig cfg;
  cfg.alu.has_div = false;
  try {
    lower("int divider(int a) { return a / 3; }", "divider", cfg);
    FAIL() << "expected a CompileError";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("@divider"), std::string::npos) << what;
    EXPECT_NE(what.find("block"), std::string::npos) << what;
  }
}

TEST(Lowering, GuardedStoreKeepsGuard) {
  analysis::AnalysisManager am;
  ir::Module m = minic::compile_to_ir(
      "int g[1];\n"
      "int f(int a) { if (a > 0) g[0] = a; return g[0]; }");
  for (ir::Function& fn : m.functions) {
    opt::pass_if_convert(fn, am, 10);
    opt::pass_simplify_cfg(fn, am);
  }
  const ProcessorConfig cfg;
  const Mdes mdes(cfg);
  const MFunc mf = lower_function(
      *m.find_function("f"), m,
      ir::layout_globals(m, BackendOptions{}.stack_top), mdes, cfg);
  bool guarded_store = false;
  for (const MBlock& b : mf.blocks) {
    for (const MInst& mi : b.insts) {
      if (mi.inst.op == Op::STW && mi.inst.pred != 0) guarded_store = true;
    }
  }
  EXPECT_TRUE(guarded_store);
}

// ---- which compare results become predicates (hand-written IR) ----

/// Lowers function `f` of an IR text module.
MFunc lower_ir(std::string_view text) {
  const ir::Module m = ir::parse_module(text);
  ir::verify_module(m, /*require_main=*/false);
  const ProcessorConfig cfg;
  const Mdes mdes(cfg);
  return lower_function(*m.find_function("f"), m,
                        ir::layout_globals(m, BackendOptions{}.stack_top),
                        mdes, cfg);
}

/// The instructions of `fn` with opcode `op`, in block order.
std::vector<Instruction> ops_of(const MFunc& fn, Op op) {
  std::vector<Instruction> out;
  for (const MBlock& b : fn.blocks) {
    for (const MInst& mi : b.insts) {
      if (mi.inst.op == op) out.push_back(mi.inst);
    }
  }
  return out;
}

/// Does `fn` test IR vreg `v`'s GPR against zero (the guard or branch
/// condition of a value that is not predicate-only)?
bool tests_against_zero(const MFunc& fn, ir::VReg v) {
  for (const Op op : {Op::CMPP_NE, Op::CMPP_EQ}) {
    for (const Instruction& i : ops_of(fn, op)) {
      if (i.src1.is_reg() && i.src1.reg == virt_reg(v) && i.src2.is_lit() &&
          i.src2.lit == 0) {
        return true;
      }
    }
  }
  return false;
}

/// Does `fn` write 1 into IR vreg `v`'s GPR under a predicate (the 0/1
/// materialisation of a compare)?
bool materialises(const MFunc& fn, ir::VReg v) {
  for (const Instruction& i : ops_of(fn, Op::MOV)) {
    if (i.dest1 == virt_reg(v) && i.pred != 0 && i.src1.is_lit() &&
        i.src1.lit == 1) {
      return true;
    }
  }
  return false;
}

TEST(Lowering, CmpWithNonCmpDefElsewhereIsMaterialised) {
  // %2 is a compare in .b1 but a plain move in .b2, so the branch on it
  // in .b3 must read a GPR that both paths wrote.
  const MFunc mf = lower_ir(R"(
int f(%1) frame=0 {
.b0:
  condbr %1 ? .b1 : .b2
.b1:
  %2 = cmp.lt %1, 5
  br .b3
.b2:
  %2 = 7
  br .b3
.b3:
  condbr %2 ? .b4 : .b5
.b4:
  ret 1
.b5:
  ret 2
}
)");
  EXPECT_TRUE(materialises(mf, 2));
  EXPECT_TRUE(tests_against_zero(mf, 2));
}

TEST(Lowering, CmpUsedAsGuardAndValueIsMaterialised) {
  const MFunc mf = lower_ir(R"(
int f(%1, %2) frame=0 {
.b0:
  %3 = cmp.lt %1, 5
  [%3] %2 = 9
  %4 = add %3, %2
  ret %4
}
)");
  EXPECT_TRUE(materialises(mf, 3));
  // The guard is a fresh compare of the materialised value.
  EXPECT_TRUE(tests_against_zero(mf, 3));
  const std::vector<Instruction> cmps = ops_of(mf, Op::CMPP_NE);
  ASSERT_EQ(cmps.size(), 1u);
  bool guarded = false;
  for (const Instruction& i : ops_of(mf, Op::MOV)) {
    if (i.dest1 == virt_reg(2) && i.src1.is_lit() && i.src1.lit == 9) {
      EXPECT_EQ(i.pred, cmps[0].dest1);
      guarded = true;
    }
  }
  EXPECT_TRUE(guarded);
}

TEST(Lowering, NegatedGuardAllocatesTheComplementPredicate) {
  // A predicate-only compare writes its complement only when some guard
  // reads it negated; the guarded op then reads the complement.
  for (const bool negated : {false, true}) {
    SCOPED_TRACE(negated ? "negated" : "plain");
    const MFunc mf = lower_ir(cat(R"(
int f(%1, %2) frame=0 {
.b0:
  %3 = cmp.lt %1, 5
  [)", negated ? "!" : "", R"(%3] %2 = 9
  ret %2
}
)"));
    const std::vector<Instruction> cmps = ops_of(mf, Op::CMPP_LT);
    ASSERT_EQ(cmps.size(), 1u);
    EXPECT_FALSE(materialises(mf, 3));
    EXPECT_EQ(cmps[0].dest2 != 0, negated);
    bool guarded = false;
    for (const Instruction& i : ops_of(mf, Op::MOV)) {
      if (i.dest1 == virt_reg(2) && i.src1.is_lit() && i.src1.lit == 9) {
        EXPECT_EQ(i.pred, negated ? cmps[0].dest2 : cmps[0].dest1);
        guarded = true;
      }
    }
    EXPECT_TRUE(guarded);
  }
}

TEST(Lowering, ParameterIsNeverPredicateOnly) {
  // %1's only def in the body is a compare and its only use a branch,
  // but on the path .b0 -> .b2 it still holds the caller's argument.
  const MFunc mf = lower_ir(R"(
int f(%1, %2) frame=0 {
.b0:
  condbr %2 ? .b1 : .b2
.b1:
  %1 = cmp.lt %2, 5
  br .b2
.b2:
  condbr %1 ? .b3 : .b4
.b3:
  ret 1
.b4:
  ret 2
}
)");
  EXPECT_TRUE(materialises(mf, 1));
  EXPECT_TRUE(tests_against_zero(mf, 1));
}

// ---- register allocation ----

void expect_all_physical(const MFunc& fn, const ProcessorConfig& cfg) {
  for (const MBlock& b : fn.blocks) {
    for (const MInst& mi : b.insts) {
      const Instruction& inst = mi.inst;
      const OpInfo& info = inst.info();
      const auto check = [&](std::uint32_t reg, RegFile file) {
        EXPECT_FALSE(is_virtual(reg));
        switch (file) {
          case RegFile::Gpr: EXPECT_LT(reg, cfg.num_gprs); break;
          case RegFile::Pred: EXPECT_LT(reg, cfg.num_preds); break;
          case RegFile::Btr: EXPECT_LT(reg, cfg.num_btrs); break;
          case RegFile::None: break;
        }
      };
      if (info.dest1 != RegFile::None) check(inst.dest1, info.dest1);
      if (info.dest2 != RegFile::None) check(inst.dest2, info.dest2);
      if (inst.src1.is_reg()) check(inst.src1.reg, RegFile::Gpr);
      check(inst.pred, RegFile::Pred);
    }
  }
}

TEST(RegAlloc, AssignsPhysicalRegisters) {
  Lowered l = lower(
      "int f(int a, int b) { int c = a * b; int d = a + b;"
      " return c - d; }",
      "f");
  allocate_registers(l.mfunc, l.config);
  expect_all_physical(l.mfunc, l.config);
}

TEST(RegAlloc, SpillsUnderPressure) {
  // 16 GPRs leaves r12..r15 allocatable: force spills with many
  // simultaneously-live values.
  std::string src = "int f(int a) { ";
  for (int i = 0; i < 12; ++i) {
    src += cat("int v", i, " = a * ", i + 2, ";");
  }
  src += "return ";
  for (int i = 0; i < 12; ++i) {
    src += cat(i ? " + " : "", "v", i);
  }
  src += "; }";
  ProcessorConfig cfg;
  cfg.num_gprs = 16;
  Lowered l = lower(src, "f", cfg);
  allocate_registers(l.mfunc, l.config);
  expect_all_physical(l.mfunc, l.config);
  // Spill code appeared.
  EXPECT_GE(count_op(l.mfunc, Op::STW), 2u);
}

TEST(RegAlloc, CallCrossingValuesAreSpilled) {
  Lowered l = lower(
      "int g(int x) { return x; }\n"
      "int f(int a) { int keep = a * 3; int r = g(a); return keep + r; }",
      "f");
  allocate_registers(l.mfunc, l.config);
  expect_all_physical(l.mfunc, l.config);
  // `keep` must survive the call through memory: at least the ra save,
  // plus one spill store.
  EXPECT_GE(count_op(l.mfunc, Op::STW), 2u);
}

TEST(RegAlloc, PatchesFrameSize) {
  Lowered l = lower("int f() { int a[10]; a[0] = 1; return a[0]; }", "f");
  allocate_registers(l.mfunc, l.config);
  const MInst& pro = l.mfunc.blocks[0].insts[0];
  ASSERT_EQ(pro.frame_sign, -1);
  EXPECT_LE(pro.inst.src2.lit, -44);  // 4 (ra) + 40 (locals)
}

TEST(RegAlloc, ThrowsWhenAbiDoesNotFit) {
  ProcessorConfig cfg;
  cfg.num_gprs = 8;
  Lowered l = lower("int f() { return 1; }", "f");
  EXPECT_THROW(allocate_registers(l.mfunc, cfg), Error);
}

// ---- scheduling ----

/// Simulate the bundle stream of one block sequentially and compare
/// against the unscheduled order: every register value produced must be
/// identical (dependences preserved). We approximate by checking
/// structural rules instead: no two ops in a bundle where one writes a
/// register the other reads or writes; FU limits respected.
TEST(Schedule, RespectsResourceLimitsAndDependences) {
  const char* src =
      "int f(int a, int b) {"
      "  int c = a + b; int d = a - b; int e = c * d;"
      "  int g = c ^ d; int h = e + g; return h; }";
  Lowered l = lower(src, "f");
  allocate_registers(l.mfunc, l.config);
  const Mdes mdes(l.config);
  const ScheduledFunc sf = schedule_function(l.mfunc, mdes, l.config);

  for (const auto& block : sf.blocks) {
    for (const auto& bundle : block.bundles) {
      EXPECT_LE(bundle.size(), l.config.issue_width);
      unsigned alu = 0, cmpu = 0, lsu = 0, bru = 0;
      std::set<std::uint32_t> writes;
      for (const auto& mi : bundle) {
        switch (mi.inst.info().fu) {
          case FuClass::Alu: ++alu; break;
          case FuClass::Cmpu: ++cmpu; break;
          case FuClass::Lsu: ++lsu; break;
          case FuClass::Bru: ++bru; break;
          case FuClass::None: break;
        }
        if (mi.inst.info().writes_dest1() &&
            mi.inst.info().dest1 == RegFile::Gpr) {
          // No WAW within a bundle.
          EXPECT_TRUE(writes.insert(mi.inst.dest1).second);
        }
      }
      EXPECT_LE(alu, l.config.num_alus);
      EXPECT_LE(cmpu, 1u);
      EXPECT_LE(lsu, 1u);
      EXPECT_LE(bru, 1u);
      // Note: reading a register another op in the bundle writes is a
      // legal WAR under MultiOp reads-before-writes semantics; genuine
      // RAW misplacement is caught by the e2e equivalence suite, which
      // compares scheduled execution against the interpreter.
    }
  }
}

TEST(Schedule, FindsIlpInIndependentWork) {
  // Eight independent multiplies: with 4 ALUs the busiest bundle should
  // hold several of them.
  const char* src =
      "int f(int a, int b) {"
      "  int t0 = a * 3; int t1 = b * 5; int t2 = a * 7; int t3 = b * 11;"
      "  int t4 = a * 13; int t5 = b * 17; int t6 = a * 19; int t7 = b * 23;"
      "  return ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)); }";
  Lowered l = lower(src, "f");
  allocate_registers(l.mfunc, l.config);
  const Mdes mdes(l.config);
  const ScheduledFunc sf = schedule_function(l.mfunc, mdes, l.config);
  std::size_t max_width = 0;
  for (const auto& block : sf.blocks) {
    for (const auto& bundle : block.bundles) {
      max_width = std::max(max_width, bundle.size());
    }
  }
  EXPECT_GE(max_width, 3u);
}

TEST(Schedule, SingleAluLimitsWidth) {
  const char* src =
      "int f(int a, int b) {"
      "  int t0 = a * 3; int t1 = b * 5; int t2 = a * 7;"
      "  return t0 + t1 + t2; }";
  ProcessorConfig cfg;
  cfg.num_alus = 1;
  Lowered l = lower(src, "f", cfg);
  allocate_registers(l.mfunc, l.config);
  const Mdes mdes(cfg);
  const ScheduledFunc sf = schedule_function(l.mfunc, mdes, cfg);
  for (const auto& block : sf.blocks) {
    for (const auto& bundle : block.bundles) {
      unsigned alu = 0;
      for (const auto& mi : bundle) {
        if (mi.inst.info().fu == FuClass::Alu) ++alu;
      }
      EXPECT_LE(alu, 1u);
    }
  }
}

TEST(Schedule, UnscheduledModeIsOneOpPerBundle) {
  Lowered l = lower("int f(int a) { return a + 1; }", "f");
  allocate_registers(l.mfunc, l.config);
  const Mdes mdes(l.config);
  const ScheduledFunc sf =
      schedule_function(l.mfunc, mdes, l.config, /*schedule=*/false);
  for (const auto& block : sf.blocks) {
    for (const auto& bundle : block.bundles) {
      EXPECT_EQ(bundle.size(), 1u);
    }
  }
}

TEST(Schedule, BranchesStayLast) {
  const char* src = "int f(int a) { if (a) return 1; return 2; }";
  Lowered l = lower(src, "f");
  allocate_registers(l.mfunc, l.config);
  const Mdes mdes(l.config);
  const ScheduledFunc sf = schedule_function(l.mfunc, mdes, l.config);
  for (const auto& block : sf.blocks) {
    bool saw_branch_bundle = false;
    for (const auto& bundle : block.bundles) {
      for (const auto& mi : bundle) {
        if (mi.inst.info().is_branch) {
          // Branches may only appear in the trailing bundles.
          saw_branch_bundle = true;
        }
      }
      if (saw_branch_bundle) {
        bool has_branch = false;
        for (const auto& mi : bundle) {
          has_branch |= mi.inst.info().is_branch || mi.inst.op == Op::HALT;
        }
        EXPECT_TRUE(has_branch);
      }
    }
  }
}

}  // namespace
}  // namespace cepic::backend
