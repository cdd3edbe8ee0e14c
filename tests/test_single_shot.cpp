// Single-shot pipeline tests: the compile_once()/run_once() one-call
// helpers (successors of the retired driver:: shims), option threading,
// and the equivalence between one-shot results and manually chained
// stages.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "asmtool/assembler.hpp"
#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "serial/serial.hpp"

namespace cepic::pipeline {
namespace {

const char* kProgram =
    "int main() { int s = 0;"
    " for (int i = 0; i < 6; i++) s += i * i;"
    " out(s); return s; }";

TEST(SingleShot, CompileProducesConsistentArtifacts) {
  const ProcessorConfig cfg;
  const Program program = compile_once(kProgram, cfg);
  EXPECT_EQ(program.config, cfg);
  // The assembly a Service prints must reassemble into the same program.
  Service service;
  const std::string text = service.compile_asm(kProgram, cfg);
  const Program again = asmtool::assemble(text, cfg);
  EXPECT_EQ(again.encode_code(), program.encode_code());
  EXPECT_NE(text.find("fn_main:"), std::string::npos);
  // The optimised module is exposed for inspection.
  EXPECT_NE(service.compile_module(kProgram).find_function("main"), nullptr);
}

TEST(SingleShot, RunReturnsReadySimulator) {
  EpicSimulator sim = run_once(kProgram, ProcessorConfig{});
  EXPECT_TRUE(sim.halted());
  ASSERT_EQ(sim.output().size(), 1u);
  EXPECT_EQ(sim.output()[0], 55u);
  EXPECT_EQ(sim.gpr(3), 55u);
  EXPECT_GT(sim.stats().cycles, 0u);
}

TEST(SingleShot, SimOptionsThreadThroughToStackTop) {
  // A smaller memory must still work: the backend's stack-top constant
  // follows sim.mem_size.
  SimOptions small;
  small.mem_size = 1 << 16;
  EpicSimulator sim = run_once(kProgram, ProcessorConfig{}, {}, small);
  EXPECT_EQ(sim.output()[0], 55u);
  EXPECT_EQ(sim.memory().size(), std::size_t{1} << 16);
}

TEST(SingleShot, UnoptimisedPipelineAgrees) {
  CodegenOptions no_opt;
  no_opt.optimize = false;
  EpicSimulator a = run_once(kProgram, ProcessorConfig{}, no_opt);
  EpicSimulator b = run_once(kProgram, ProcessorConfig{});
  EXPECT_EQ(a.output(), b.output());
  // And the optimiser must actually pay for itself here.
  EXPECT_LT(b.stats().cycles, a.stats().cycles);
}

TEST(SingleShot, SarmDefaultsDisableEpicIfConversion) {
  const sarm::SarmCompileOptions options;
  EXPECT_FALSE(options.opt.if_convert);
  auto sim = sarm::run_minic_on_sarm(kProgram);
  EXPECT_EQ(sim.output()[0], 55u);
  EXPECT_EQ(sim.reg(0), 55u);
}

TEST(SingleShot, CompileErrorsPropagate) {
  EXPECT_THROW(compile_once("int main() { return x; }", ProcessorConfig{}),
               CompileError);
  EXPECT_THROW(sarm::compile_minic_to_sarm("int main( { }"), CompileError);

  // Globals that do not fit in memory: one too big to allocate, and one
  // whose byte count wraps 32 bits to 0 (which would put `b` at `a`'s
  // address). The EPIC and SARM back ends and the IR interpreter all
  // reject them, naming the first global that does not fit.
  const std::pair<const char*, const char*> too_big[] = {
      {"int g[1000000000]; int main() { return g[5]; }", "global `g`"},
      {"int a[1073741824]; int b[2]; int main() { b[1] = 7; return b[1]; }",
       "global `a`"}};
  for (const auto& input : too_big) {
    const char* src = input.first;
    const char* name = input.second;
    SCOPED_TRACE(src);
    const auto expect_rejected = [name](const auto& compile) {
      try {
        compile();
        ADD_FAILURE() << "accepted";
      } catch (const CompileError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("does not fit"), std::string::npos) << what;
      }
    };
    expect_rejected([&] { (void)compile_once(src, ProcessorConfig{}); });
    expect_rejected([&] { (void)sarm::compile_minic_to_sarm(src); });
    const ir::Module module = minic::compile_to_ir(src);
    expect_rejected([&] { ir::Interpreter interp(module); });
  }
}

TEST(SingleShot, ConfigWithoutEnoughRegistersIsRejected) {
  ProcessorConfig cfg;
  cfg.num_gprs = 8;  // below the ABI's reserved set
  EXPECT_THROW(compile_once(kProgram, cfg), Error);
}

TEST(SingleShot, CustomOpsConfigIsCarriedIntoTheBinary) {
  ProcessorConfig cfg;
  cfg.custom_ops = {"rotr"};
  const Program program = compile_once(kProgram, cfg);
  EXPECT_EQ(program.config.custom_ops, cfg.custom_ops);
  // A simulator built from the serialised binary picks the ops back up.
  const Program loaded =
      serial::decode_program(serial::encode_program(program));
  EXPECT_EQ(loaded.config.custom_ops, cfg.custom_ops);
}

TEST(SingleShot, ProgramsAreReRunnableAfterReset) {
  EpicSimulator sim = run_once(kProgram, ProcessorConfig{});
  const auto first = sim.output();
  const auto cycles = sim.stats().cycles;
  sim.reset();
  sim.run();
  EXPECT_EQ(sim.output(), first);
  EXPECT_EQ(sim.stats().cycles, cycles);  // deterministic cycle model
}

}  // namespace
}  // namespace cepic::pipeline
