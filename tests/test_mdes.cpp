#include <gtest/gtest.h>

#include "mdes/mdes.hpp"

namespace cepic {
namespace {

TEST(Mdes, UnitsFromConfig) {
  ProcessorConfig cfg;
  cfg.num_alus = 3;
  const Mdes m(cfg);
  EXPECT_EQ(m.units(FuClass::Alu), 3u);
  EXPECT_EQ(m.units(FuClass::Cmpu), 1u);
  EXPECT_EQ(m.units(FuClass::Lsu), 1u);
  EXPECT_EQ(m.units(FuClass::Bru), 1u);
  EXPECT_EQ(m.units(FuClass::None), 0u);
}

TEST(Mdes, IssueAndPortsAndForwarding) {
  ProcessorConfig cfg;
  cfg.issue_width = 2;
  cfg.reg_port_budget = 6;
  cfg.forwarding = false;
  const Mdes m(cfg);
  EXPECT_EQ(m.issue_width(), 2u);
  EXPECT_EQ(m.reg_port_budget(), 6u);
  EXPECT_FALSE(m.forwarding());
}

TEST(Mdes, LoadLatencyFromConfig) {
  ProcessorConfig cfg;
  cfg.load_latency = 3;
  const Mdes m(cfg);
  EXPECT_EQ(m.latency(Op::LDW), 3u);
  EXPECT_EQ(m.latency(Op::LDB), 3u);
  EXPECT_EQ(m.latency(Op::LDWS), 3u);
  EXPECT_EQ(m.latency(Op::ADD), 1u);
  EXPECT_EQ(m.latency(Op::CMPP_EQ), 1u);
}

TEST(Mdes, FeatureTrimsDisableOps) {
  ProcessorConfig cfg;
  cfg.alu.has_div = false;
  cfg.alu.has_minmax = false;
  const Mdes m(cfg);
  EXPECT_FALSE(m.op_supported(Op::DIV));
  EXPECT_FALSE(m.op_supported(Op::REM));
  EXPECT_FALSE(m.op_supported(Op::MIN));
  EXPECT_FALSE(m.op_supported(Op::ABS));
  EXPECT_TRUE(m.op_supported(Op::MUL));
  EXPECT_TRUE(m.op_supported(Op::ADD));
}

TEST(Mdes, CustomOpsFollowConfig) {
  ProcessorConfig cfg;
  cfg.custom_ops = {"rotr", "madd16"};
  const CustomOpTable table = CustomOpTable::for_names(cfg.custom_ops);
  const Mdes m(cfg, &table);
  EXPECT_TRUE(m.op_supported(Op::CUSTOM0));
  EXPECT_TRUE(m.op_supported(Op::CUSTOM1));
  EXPECT_FALSE(m.op_supported(Op::CUSTOM2));
}

TEST(Mdes, TextRoundtripPreservesModel) {
  ProcessorConfig cfg;
  cfg.num_alus = 2;
  cfg.issue_width = 3;
  cfg.load_latency = 4;
  cfg.alu.has_div = false;
  const Mdes m(cfg);
  const Mdes back = Mdes::from_text(m.to_text());

  EXPECT_EQ(back.units(FuClass::Alu), 2u);
  EXPECT_EQ(back.issue_width(), 3u);
  EXPECT_EQ(back.reg_port_budget(), m.reg_port_budget());
  EXPECT_EQ(back.forwarding(), m.forwarding());
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    if (op == Op::NOP) continue;
    EXPECT_EQ(back.op_supported(op), m.op_supported(op)) << op_info(op).name;
    if (m.op_supported(op)) {
      EXPECT_EQ(back.latency(op), m.latency(op)) << op_info(op).name;
    }
  }
}

TEST(Mdes, FromTextRejectsMalformed) {
  EXPECT_THROW(Mdes::from_text("SECTION Bogus {\n}\n"), ConfigError);
  EXPECT_THROW(Mdes::from_text("SECTION Resource {\n  ALU count 4;\n}\n"),
               ConfigError);
  EXPECT_THROW(Mdes::from_text("add(unit ALU; latency 1);\n"), ConfigError);
  EXPECT_THROW(
      Mdes::from_text("SECTION Operation {\n  frob(unit ALU; latency 1);\n}\n"),
      ConfigError);
  // A Resource entry with no value is a diagnostic, not out_of_range.
  EXPECT_THROW(Mdes::from_text("SECTION Resource {\n  issue();\n}\n"),
               ConfigError);
  EXPECT_THROW(Mdes::from_text("SECTION Resource {\n  ALU();\n}\n"),
               ConfigError);
}

TEST(Mdes, ToTextMentionsResourcesAndOps) {
  const Mdes m{ProcessorConfig{}};
  const std::string text = m.to_text();
  EXPECT_NE(text.find("ALU(count 4)"), std::string::npos);
  EXPECT_NE(text.find("issue(width 4)"), std::string::npos);
  EXPECT_NE(text.find("add(unit ALU"), std::string::npos);
  EXPECT_NE(text.find("ldw(unit LSU; latency 2)"), std::string::npos);
}

}  // namespace
}  // namespace cepic
