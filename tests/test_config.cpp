#include <gtest/gtest.h>

#include <string>

#include "core/config.hpp"

namespace cepic {
namespace {

TEST(Config, DefaultMatchesPaperFormat) {
  // Paper Fig. 1: OPCODE(15) DEST1(6) DEST2(6) SRC1(16) SRC2(16) PRED(5).
  const ProcessorConfig cfg;
  cfg.validate();
  const InstructionFormat f = cfg.format();
  EXPECT_EQ(f.opcode_bits, 15u);
  EXPECT_EQ(f.dest_bits, 6u);
  EXPECT_EQ(f.src_bits, 16u);
  EXPECT_EQ(f.pred_bits, 5u);
  EXPECT_EQ(f.total_bits(), 64u);
}

TEST(Config, DefaultsMatchPaperParameters) {
  // Paper §3.3: defaults 4 ALUs, 64 GPRs, 32 predicate regs, 16 BTRs,
  // 32-bit datapath, 4 instructions per issue.
  const ProcessorConfig cfg;
  EXPECT_EQ(cfg.num_alus, 4u);
  EXPECT_EQ(cfg.num_gprs, 64u);
  EXPECT_EQ(cfg.num_preds, 32u);
  EXPECT_EQ(cfg.num_btrs, 16u);
  EXPECT_EQ(cfg.issue_width, 4u);
  EXPECT_EQ(cfg.datapath_width, 32u);
}

TEST(Config, FormatGrowsWithRegisterFile) {
  // Paper §3.3: >64 registers requires re-designing the format; our
  // format() widens the index fields automatically.
  ProcessorConfig cfg;
  cfg.num_gprs = 128;
  const InstructionFormat f = cfg.format();
  EXPECT_EQ(f.dest_bits, 7u);
  EXPECT_GT(f.total_bits(), 64u);  // no longer fits the 64-bit container
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, FieldOffsetsTile) {
  const InstructionFormat f = ProcessorConfig{}.format();
  EXPECT_EQ(f.pred_lo(), 0u);
  EXPECT_EQ(f.src2_lo(), 5u);
  EXPECT_EQ(f.src1_lo(), 21u);
  EXPECT_EQ(f.dest2_lo(), 37u);
  EXPECT_EQ(f.dest1_lo(), 43u);
  EXPECT_EQ(f.opcode_lo(), 49u);
  EXPECT_EQ(f.opcode_lo() + f.opcode_bits, 64u);
}

TEST(Config, ValidateRejectsBadIssueWidth) {
  ProcessorConfig cfg;
  cfg.issue_width = 5;  // memory bandwidth limits issue to 1..4
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.issue_width = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, ValidateRejectsBadAluCount) {
  ProcessorConfig cfg;
  cfg.num_alus = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.num_alus = 17;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, ValidateRejectsTooManyCustomOps) {
  ProcessorConfig cfg;
  cfg.custom_ops = {"a", "b", "c", "d", "e"};
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Config, TextRoundtrip) {
  ProcessorConfig cfg;
  cfg.num_alus = 2;
  cfg.num_gprs = 32;
  cfg.num_preds = 16;
  cfg.num_btrs = 8;
  cfg.issue_width = 3;
  cfg.datapath_width = 16;
  cfg.forwarding = false;
  cfg.unified_memory_contention = true;
  cfg.load_latency = 3;
  cfg.alu.has_div = false;
  cfg.custom_ops = {"rotr", "popc"};

  const ProcessorConfig back = ProcessorConfig::from_text(cfg.to_text());
  EXPECT_EQ(back, cfg);
}

TEST(Config, FromTextParsesCommentsAndSpacing) {
  const ProcessorConfig cfg = ProcessorConfig::from_text(
      "# a comment\n"
      "  num_alus   =  2  # trailing comment\n"
      "\n"
      "alu_has_div = off\n");
  EXPECT_EQ(cfg.num_alus, 2u);
  EXPECT_FALSE(cfg.alu.has_div);
}

TEST(Config, FromTextRejectsUnknownKey) {
  EXPECT_THROW(ProcessorConfig::from_text("bogus_key = 1\n"), ConfigError);
}

TEST(Config, FromTextRejectsMalformedLine) {
  EXPECT_THROW(ProcessorConfig::from_text("num_alus 4\n"), ConfigError);
  EXPECT_THROW(ProcessorConfig::from_text("num_alus = four\n"), ConfigError);
}

TEST(Config, FromTextRejectsIntegersBeyond32Bits) {
  // 2^32 + 1 must not wrap to a valid num_alus of 1.
  try {
    ProcessorConfig::from_text("num_alus = 4294967297\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad integer for num_alus"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ProcessorConfig::from_text("num_gprs = 4294967296\n"),
               ConfigError);
}

TEST(Config, FromTextValidates) {
  EXPECT_THROW(ProcessorConfig::from_text("issue_width = 9\n"), ConfigError);
}

// Parameterised sweep: every legal (alus, issue) combination validates
// and produces a format that fits the container.
class ConfigSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ConfigSweep, ValidConfigsProduceValidFormats) {
  ProcessorConfig cfg;
  cfg.num_alus = std::get<0>(GetParam());
  cfg.issue_width = std::get<1>(GetParam());
  cfg.validate();
  EXPECT_LE(cfg.format().total_bits(), 64u);
}

INSTANTIATE_TEST_SUITE_P(
    AlusByIssue, ConfigSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace cepic
