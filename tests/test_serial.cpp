// The CEPX binary container and payload codecs (docs/FORMAT.md):
// canonical round-trips for random and workload Modules/Programs/
// configurations, the text↔binary equivalence through the IR parser,
// layered rejection of corrupt/truncated/pre-PR7 containers, the
// mutation-fuzz decode smoke the sanitizer CI job runs, and the
// warm-store property that Modules load as a binary decode with no
// frontend parse span in the obs trace.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "ir/parse.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "serial/serial.hpp"
#include "support/error.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace cepic {
namespace {

using serial::PayloadKind;

std::vector<std::uint8_t> sample_program_bytes() {
  Prng rng(7);
  return serial::encode_program(
      testutil::random_program(rng, ProcessorConfig{}));
}

std::vector<std::uint8_t> sample_module_bytes() {
  Prng rng(8);
  return serial::encode_module(testutil::random_module(rng));
}

/// EXPECT that decoding throws and the diagnostic mentions `needle`.
template <typename Decode>
void expect_rejects(Decode&& decode, std::string_view needle) {
  try {
    decode();
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string_view(e.what()).find(needle), std::string_view::npos)
        << "diagnostic was: " << e.what();
  }
}

// ------------------------------------------------- canonical round-trips

TEST(SerialModule, RandomModulesRoundTripBitIdentical) {
  Prng rng(1);
  for (int i = 0; i < 200; ++i) {
    const ir::Module m = testutil::random_module(rng);
    const std::vector<std::uint8_t> bytes = serial::encode_module(m);
    EXPECT_EQ(serial::detect_kind(bytes), PayloadKind::kModule);
    const ir::Module back = serial::decode_module(bytes);
    ASSERT_EQ(back, m) << "iteration " << i;
    ASSERT_EQ(serial::encode_module(back), bytes) << "iteration " << i;
  }
}

TEST(SerialModule, TextAndBinaryFormsAgreeExactly) {
  Prng rng(2);
  for (int i = 0; i < 100; ++i) {
    const ir::Module m = testutil::random_module(rng);
    // text → Module: the parser reconstructs the module exactly
    // (random_module keeps next_vreg at max-used + 1, the invariant the
    // text form preserves).
    const std::string text = ir::to_string(m);
    const ir::Module parsed = ir::parse_module(text);
    ASSERT_EQ(parsed, m) << "iteration " << i << "\n" << text;
    ASSERT_EQ(ir::to_string(parsed), text);
    // text → Module → binary → Module → text, byte-identical end to end.
    const ir::Module thawed =
        serial::decode_module(serial::encode_module(parsed));
    ASSERT_EQ(ir::to_string(thawed), text);
  }
}

TEST(SerialProgram, RandomProgramsRoundTripAcrossTheConfigGrid) {
  for (const testutil::NamedConfig& nc : testutil::fuzz_configs()) {
    SCOPED_TRACE(nc.name);
    Prng rng(3);
    for (int i = 0; i < 40; ++i) {
      const Program p = testutil::random_program(rng, nc.cfg);
      const std::vector<std::uint8_t> bytes = serial::encode_program(p);
      EXPECT_EQ(serial::detect_kind(bytes), PayloadKind::kProgram);
      const Program back = serial::decode_program(bytes);
      ASSERT_EQ(back, p) << "iteration " << i;
      ASSERT_EQ(serial::encode_program(back), bytes) << "iteration " << i;
    }
  }
}

TEST(SerialConfig, ConfigsRoundTripBitIdentical) {
  for (const testutil::NamedConfig& nc : testutil::fuzz_configs()) {
    SCOPED_TRACE(nc.name);
    const std::vector<std::uint8_t> bytes = serial::encode_config(nc.cfg);
    EXPECT_EQ(serial::detect_kind(bytes), PayloadKind::kConfig);
    const ProcessorConfig back = serial::decode_config(bytes);
    EXPECT_EQ(back, nc.cfg);
    EXPECT_EQ(serial::encode_config(back), bytes);
  }
}

TEST(SerialWorkloads, ExactRoundTripsAcrossTheDifferentialGrid) {
  // The acceptance sweep: every bundled workload, compiled across the
  // differential suite's ALU grid — re-encode byte-identical for both
  // Modules and Programs, re-print text-identical for the IR.
  for (const workloads::Workload& w : workloads::all_workloads(8, 1, 8, 5)) {
    SCOPED_TRACE(w.name);
    // The optimised module is config-independent.
    const ir::Module module =
        pipeline::Service().compile_module(w.minic_source);

    // Optimised modules may hold next_vreg above the highest live vreg
    // (dead defs were deleted), and the text form does not carry it —
    // so the text property is reprint-identity, not deep equality.
    const std::string text = ir::to_string(module);
    const ir::Module parsed = ir::parse_module(text);
    EXPECT_EQ(ir::to_string(parsed), text);

    const std::vector<std::uint8_t> mbytes = serial::encode_module(module);
    EXPECT_EQ(serial::decode_module(mbytes), module);
    EXPECT_EQ(serial::encode_module(serial::decode_module(mbytes)), mbytes);

    for (unsigned alus = 1; alus <= 4; ++alus) {
      SCOPED_TRACE(cat(alus, " ALUs"));
      ProcessorConfig cfg;
      cfg.num_alus = alus;
      const Program program = pipeline::compile_once(w.minic_source, cfg);
      const std::vector<std::uint8_t> pbytes = serial::encode_program(program);
      EXPECT_EQ(serial::decode_program(pbytes), program);
      EXPECT_EQ(serial::encode_program(serial::decode_program(pbytes)),
                pbytes);
    }
  }
}

// ------------------------------------------------- layered rejection

TEST(SerialReject, EmptyAndForeignFilesAreNotContainers) {
  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(serial::looks_like_cepx(empty));
  expect_rejects([&] { serial::decode_program(empty); }, "not a CEPX");

  const std::string text = "int main() { return 0; }";
  const std::vector<std::uint8_t> source(text.begin(), text.end());
  EXPECT_FALSE(serial::looks_like_cepx(source));
  expect_rejects([&] { (void)serial::detect_kind(source); }, "bad magic");
}

TEST(SerialReject, BadMagic) {
  std::vector<std::uint8_t> bytes = sample_program_bytes();
  bytes[0] = 'X';
  EXPECT_FALSE(serial::looks_like_cepx(bytes));
  expect_rejects([&] { serial::decode_program(bytes); }, "bad magic");
}

TEST(SerialReject, PreRefactorV1ContainersGetAnExplicitDiagnostic) {
  // The v1 format streamed a u32 version directly after the magic; a
  // v2 reader sees version 0 there and must say "old toolchain", not
  // "corrupt".
  std::vector<std::uint8_t> v1{'C', 'E', 'P', 'X', 0, 0, 0, 1, 0, 0, 0, 0};
  EXPECT_TRUE(serial::looks_like_cepx(v1));
  expect_rejects([&] { (void)serial::detect_kind(v1); }, "pre-PR7");
  expect_rejects([&] { serial::decode_program(v1); }, "pre-PR7");
}

TEST(SerialReject, FutureVersionsAreRejected) {
  std::vector<std::uint8_t> bytes = sample_program_bytes();
  bytes[5] = 9;  // header version field (big-endian u16 at offset 4)
  expect_rejects([&] { serial::decode_program(bytes); },
                 "unsupported CEPX container version");
}

TEST(SerialReject, EveryTruncationIsDiagnosed) {
  const std::vector<std::uint8_t> bytes = sample_program_bytes();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(n));
    EXPECT_THROW(serial::decode_program(cut), Error) << "prefix of " << n;
  }
}

TEST(SerialReject, TrailingBytesAreDiagnosed) {
  std::vector<std::uint8_t> bytes = sample_module_bytes();
  bytes.push_back(0);
  expect_rejects([&] { serial::decode_module(bytes); }, "trailing");
}

TEST(SerialReject, PayloadCorruptionFailsTheDigest) {
  std::vector<std::uint8_t> bytes = sample_module_bytes();
  bytes.back() ^= 0x40;  // payload byte: covered by the digest
  expect_rejects([&] { serial::decode_module(bytes); }, "digest");
}

TEST(SerialReject, WrongPayloadKindIsNamed) {
  expect_rejects([&] { serial::decode_module(sample_program_bytes()); },
                 "expected an IR module");
  expect_rejects([&] { serial::decode_config(sample_module_bytes()); },
                 "expected a processor configuration");
  expect_rejects(
      [&] { serial::decode_program(serial::encode_config(ProcessorConfig{})); },
      "expected a program");
}

TEST(SerialFuzz, MutatedContainersNeverCrashOnlyThrow) {
  // The sanitizer CI job runs this as its fuzz-decode smoke: random
  // bit flips and truncations over valid containers must either decode
  // or throw Error — never read out of bounds.
  const std::vector<std::vector<std::uint8_t>> bases = {
      sample_module_bytes(), sample_program_bytes(),
      serial::encode_config(ProcessorConfig{})};
  Prng rng(11);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> bytes = bases[rng.next_below(3)];
    const int flips = rng.next_in(1, 8);
    for (int f = 0; f < flips; ++f) {
      bytes[rng.next_below(static_cast<std::uint32_t>(bytes.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    if (rng.next_below(4) == 0) {
      bytes.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size())));
    }
    try {
      (void)serial::decode_module(bytes);
    } catch (const Error&) {
    }
    try {
      (void)serial::decode_program(bytes);
    } catch (const Error&) {
    }
    try {
      (void)serial::decode_config(bytes);
    } catch (const Error&) {
    }
  }
}

// ------------------------------------------------- the IR text parser

TEST(IrParse, RejectsMalformedTextWithALineNumber) {
  try {
    ir::parse_module(
        "int main() frame=0 {\n"
        ".b0:\n"
        "  %1 = frobnicate 1, 2\n"
        "}\n");
    FAIL() << "unknown op must be rejected";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.line(), 3);
  }
  EXPECT_THROW(ir::parse_module("global @g[0"), CompileError);
  EXPECT_THROW(ir::parse_module("int main( {\n}\n"), CompileError);
}

// ------------------------------------------------- warm-store decode

TEST(WarmStore, ModulesLoadWithoutAParseSpan) {
  const std::string dir = testing::TempDir() + "/serial_warm_store";
  std::filesystem::remove_all(dir);
  const char* kSrc =
      "int main() { int s = 0;"
      " for (int i = 0; i < 9; i++) s += i * 3;"
      " out(s); return s; }";
  pipeline::Options options;
  options.store_dir = dir;
  {
    pipeline::Service cold(options);
    (void)cold.compile_module(kSrc);
    EXPECT_EQ(cold.stats().frontend_runs, 1u);
  }

  obs::Registry::instance().reset();
  obs::set_enabled(true);
  pipeline::Service warm(options);
  const ir::Module module = warm.compile_module(kSrc);
  obs::set_enabled(false);

  EXPECT_NE(module.find_function("main"), nullptr);
  bool decoded_span = false;
  for (const obs::SpanRecord& s : obs::Registry::instance().spans()) {
    // The whole point of the binary store: a warm Module load is a
    // CEPX decode, never a frontend reparse.
    EXPECT_NE(s.name, "lex");
    EXPECT_NE(s.name, "parse");
    EXPECT_NE(s.name, "compile_to_ir");
    if (s.name == "module_decode") decoded_span = true;
  }
  EXPECT_TRUE(decoded_span);
  EXPECT_EQ(warm.stats().frontend_runs, 0u);
  EXPECT_EQ(warm.stats().module_decodes, 1u);
  obs::Registry::instance().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cepic
