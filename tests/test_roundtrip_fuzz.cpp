// Property/fuzz tests with logged seeds: randomly generated *valid*
// instructions must be fixed points of encode -> decode
// (core/encoding.*), and randomly generated programs must be fixed
// points of assemble -> disassemble -> assemble (src/asmtool), with the
// encoded words bit-identical. Every failure message carries the seed
// and the offending instruction/program so a run is reproducible.
//
// DisasmGolden pins disassemble's output bytes over the compiled
// workload corpus × a codegen grid and the fuzz programs below.
// Regenerate tests/golden/disasm_digests.txt by rerunning the test with
// CEPIC_REGEN_GOLDEN=1 in the environment.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "serial/serial.hpp"
#include "asmtool/assembler.hpp"
#include "backend/backend.hpp"
#include "core/encoding.hpp"
#include "core/instruction.hpp"
#include "core/program.hpp"
#include "frontend/irgen.hpp"
#include "mcheck/mcheck.hpp"
#include "opt/opt.hpp"
#include "sim/simulator.hpp"
#include "support/bits.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"
#include "workloads/workloads.hpp"
#include "test_util.hpp"

namespace cepic {
namespace {

// The generators and the config grid live in test_util.hpp so the
// fast-vs-interpretive simulator differential suite fuzzes the same
// program distribution with the same seeds.
using testutil::NamedConfig;
using testutil::fuzz_configs;
using testutil::random_instruction;
using testutil::random_program;

TEST(EncodeDecodeFuzz, EncodeThenDecodeIsAFixedPoint) {
  for (const NamedConfig& nc : fuzz_configs()) {
    const std::uint64_t seed = 0xC0FFEEull ^ fnv1a64(nc.name);
    SCOPED_TRACE(cat("config=", nc.name, " seed=0x", seed));
    Prng rng(seed);
    for (int i = 0; i < 1500; ++i) {
      const Instruction inst = random_instruction(rng, nc.cfg);
      const std::uint64_t word = encode_instruction(inst, nc.cfg);
      const Instruction back = decode_instruction(word, nc.cfg);
      ASSERT_EQ(back, inst) << "iteration " << i << ": " << to_string(inst)
                            << " decoded as " << to_string(back);
      // And the word itself is a fixed point of decode -> encode.
      ASSERT_EQ(encode_instruction(back, nc.cfg), word)
          << "iteration " << i << ": " << to_string(inst);
    }
  }
}

/// The encoding-level subset of the mcheck rules: everything a program
/// of independent random instructions must satisfy by construction.
/// (The schedule-quality rules — latency, port budget, BTR discipline —
/// are deliberately excluded: random instruction soup trips them
/// legitimately, and MultiOps hold one op here anyway.)
mcheck::CheckOptions encoding_rules() {
  return mcheck::CheckOptions::only(
      {mcheck::Rule::Structure, mcheck::Rule::FieldWidth,
       mcheck::Rule::RegBounds, mcheck::Rule::FuMissing,
       mcheck::Rule::FuOversubscribed, mcheck::Rule::BranchTarget});
}

TEST(McheckFuzz, ValidRandomProgramsAreLintClean) {
  // The fuzzer's validity predicate (validate_instruction + clamped
  // branch targets) and mcheck's encoding rules must agree: a program
  // the fuzzer calls valid is lint-clean, for every customisation.
  for (const NamedConfig& nc : fuzz_configs()) {
    const std::uint64_t seed = 0x11DEA5ull ^ fnv1a64(nc.name);
    SCOPED_TRACE(cat("config=", nc.name, " seed=0x", seed));
    Prng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const Program p = random_program(rng, nc.cfg);
      const mcheck::Report rep = mcheck::check_program(p, encoding_rules());
      ASSERT_TRUE(rep.clean()) << "iteration " << i << "\n"
                               << asmtool::disassemble(p) << rep.to_text();
    }
  }
}

TEST(McheckFuzz, LintCleanProgramsAreNeverRejectedAtSimulationTime) {
  // Soundness of the static verdict: a lint-clean program must never
  // hit the simulator's *static* rejections ("not implemented on this
  // customisation", "branch ... past end of program"). Dynamic stops —
  // the cycle limit, or running off the end when a guarded HALT is
  // nullified — depend on predicate values and stay out of scope.
  for (const NamedConfig& nc : fuzz_configs()) {
    const std::uint64_t seed = 0x51D0C4ull ^ fnv1a64(nc.name);
    SCOPED_TRACE(cat("config=", nc.name, " seed=0x", seed));
    Prng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const Program p = random_program(rng, nc.cfg);
      if (!mcheck::check_program(p, encoding_rules()).clean()) continue;
      // Lint-clean implies encodable and serialisable...
      ASSERT_NO_THROW((void)p.encode_code());
      ASSERT_NO_THROW((void)serial::encode_program(p));
      // ...and simulatable up to dynamic control-flow effects.
      SimOptions sim_options;
      sim_options.max_cycles = 10'000;
      CustomOpTable custom = CustomOpTable::for_names(nc.cfg.custom_ops);
      EpicSimulator sim(p, custom, sim_options);
      try {
        sim.run();
      } catch (const SimError& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.find("not implemented"), std::string::npos)
            << "iteration " << i << ": " << what << "\n"
            << asmtool::disassemble(p);
        EXPECT_EQ(what.find("branch to bundle"), std::string::npos)
            << "iteration " << i << ": " << what << "\n"
            << asmtool::disassemble(p);
      }
    }
  }
}

TEST(AssemblerRoundTripFuzz, AssembleDisassembleAssembleIsAFixedPoint) {
  for (const NamedConfig& nc : fuzz_configs()) {
    const std::uint64_t seed = 0xA55E3B1Eull ^ fnv1a64(nc.name);
    SCOPED_TRACE(cat("config=", nc.name, " seed=0x", seed));
    Prng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const Program p1 = random_program(rng, nc.cfg);
      const std::string text1 = asmtool::disassemble(p1);
      SCOPED_TRACE(cat("iteration ", i, "\n", text1));
      const Program p2 = asmtool::assemble(text1, nc.cfg);
      ASSERT_EQ(p2.encode_code(), p1.encode_code());
      ASSERT_EQ(p2.entry_bundle, p1.entry_bundle);
      // Disassembly of the reassembled program is also a fixed point.
      ASSERT_EQ(asmtool::disassemble(p2), text1);
    }
  }
}

std::string digest(const std::string& text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

TEST(DisasmGolden, DigestsMatchCommittedCorpus) {
  std::ostringstream fresh;
  for (const workloads::Workload& w : workloads::all_workloads(16, 8, 8, 8)) {
    ir::Module m = minic::compile_to_ir(w.minic_source);
    opt::optimize(m, {});
    for (const bool schedule : {true, false}) {
      for (unsigned alus = 1; alus <= 4; ++alus) {
        for (unsigned issue = 1; issue <= 4; ++issue) {
          for (const bool fwd : {false, true}) {
            if (!schedule && (alus != 1 || issue != 4 || !fwd)) continue;
            ProcessorConfig cfg;
            cfg.num_alus = alus;
            cfg.issue_width = issue;
            cfg.forwarding = fwd;
            backend::BackendOptions options;
            options.schedule = schedule;
            const Program p = asmtool::assemble(
                asmtool::to_text(
                    backend::compile_ir_to_listing(m, cfg, options)),
                cfg);
            fresh << "workload " << w.name << (schedule ? "" : " unscheduled")
                  << " a" << alus << " i" << issue << " f" << fwd << " "
                  << digest(asmtool::disassemble(p)) << "\n";
          }
        }
      }
    }
  }
  for (const NamedConfig& nc : fuzz_configs()) {
    Prng rng(0xA55E3B1Eull ^ fnv1a64(nc.name));
    for (int i = 0; i < 25; ++i) {
      fresh << "fuzz " << nc.name << " " << i << " "
            << digest(asmtool::disassemble(random_program(rng, nc.cfg)))
            << "\n";
    }
  }

  const std::string path =
      std::string(CEPIC_TEST_DIR) + "/golden/disasm_digests.txt";
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
      << "disassembly drifted from the committed digests; if the change "
         "is intentional, update tests/golden/disasm_digests.txt";
}

}  // namespace
}  // namespace cepic
