#include <gtest/gtest.h>

#include "core/encoding.hpp"
#include "support/bits.hpp"
#include "support/prng.hpp"

namespace cepic {
namespace {

ProcessorConfig default_cfg() {
  ProcessorConfig cfg;
  cfg.custom_ops = {"rotr"};  // so CUSTOM0 participates in the sweeps
  return cfg;
}

TEST(Encoding, RoundtripSimpleAdd) {
  const ProcessorConfig cfg = default_cfg();
  const Instruction inst =
      Instruction::make(Op::ADD, 3, Operand::r(4), Operand::imm(-5), 2);
  const std::uint64_t word = encode_instruction(inst, cfg);
  EXPECT_EQ(decode_instruction(word, cfg), inst);
}

TEST(Encoding, FieldPlacementMatchesPaperLayout) {
  // With the default format, PRED occupies bits [0,5), SRC2 [5,21),
  // SRC1 [21,37), DEST2 [37,43), DEST1 [43,49), OPCODE [49,64).
  const ProcessorConfig cfg = default_cfg();
  const Instruction inst =
      Instruction::make(Op::ADD, 9, Operand::r(11), Operand::r(13), 3);
  const std::uint64_t word = encode_instruction(inst, cfg);
  EXPECT_EQ(extract_bits(word, 0, 5), 3u);     // pred
  EXPECT_EQ(extract_bits(word, 5, 16), 13u);   // src2
  EXPECT_EQ(extract_bits(word, 21, 16), 11u);  // src1
  EXPECT_EQ(extract_bits(word, 43, 6), 9u);    // dest1
  EXPECT_EQ(extract_bits(word, 49, 12), static_cast<std::uint64_t>(Op::ADD));
}

TEST(Encoding, LiteralFlagsInOpcodeField) {
  const ProcessorConfig cfg = default_cfg();
  const std::uint64_t reg_word = encode_instruction(
      Instruction::make(Op::ADD, 1, Operand::r(2), Operand::r(3)), cfg);
  const std::uint64_t lit_word = encode_instruction(
      Instruction::make(Op::ADD, 1, Operand::r(2), Operand::imm(3)), cfg);
  // src2-literal flag = opcode-field bit 13.
  EXPECT_EQ(extract_bits(reg_word, 49 + 13, 1), 0u);
  EXPECT_EQ(extract_bits(lit_word, 49 + 13, 1), 1u);
}

TEST(Encoding, NegativeLiteralRoundtrip) {
  const ProcessorConfig cfg = default_cfg();
  for (std::int32_t lit : {-32768, -1, 0, 1, 32767}) {
    const Instruction inst =
        Instruction::make(Op::ADD, 1, Operand::r(2), Operand::imm(lit));
    EXPECT_EQ(decode_instruction(encode_instruction(inst, cfg), cfg), inst)
        << "literal " << lit;
  }
}

TEST(Encoding, ZeroExtendedLiteralRoundtrip) {
  const ProcessorConfig cfg = default_cfg();
  for (std::int32_t lit : {0, 1, 32768, 65535}) {
    const Instruction inst =
        Instruction::make(Op::OR, 1, Operand::r(2), Operand::imm(lit));
    EXPECT_EQ(decode_instruction(encode_instruction(inst, cfg), cfg), inst)
        << "literal " << lit;
  }
}

TEST(Encoding, RejectsInvalidInstruction) {
  const ProcessorConfig cfg = default_cfg();
  EXPECT_THROW(encode_instruction(Instruction::make(Op::ADD, 99, Operand::r(2),
                                                    Operand::r(3)),
                                  cfg),
               Error);
}

TEST(Encoding, DecodeRejectsUnknownOpId) {
  const ProcessorConfig cfg = default_cfg();
  // Craft a word whose opid is out of range.
  const std::uint64_t word = std::uint64_t{4000} << 49;
  EXPECT_THROW(decode_instruction(word, cfg), Error);
}

TEST(Encoding, DecodeRejectsLiteralFlagOnRegisterOnlyOperand) {
  const ProcessorConfig cfg = default_cfg();
  // BRU src1 must be a BTR register; set the literal flag artificially.
  std::uint64_t word = encode_instruction(
      Instruction::make(Op::BRU, 0, Operand::r(1)), cfg);
  word |= std::uint64_t{1} << (49 + 12);  // src1-literal flag
  EXPECT_THROW(decode_instruction(word, cfg), Error);
}

TEST(Encoding, HaltAndNopRoundtrip) {
  const ProcessorConfig cfg = default_cfg();
  EXPECT_EQ(decode_instruction(
                encode_instruction(Instruction::nop(), cfg), cfg),
            Instruction::nop());
  EXPECT_EQ(decode_instruction(
                encode_instruction(Instruction::halt(), cfg), cfg),
            Instruction::halt());
}

// ---- Property test: randomised instructions roundtrip across several
// configurations (different register-file sizes → different formats). ----

struct SweepConfig {
  unsigned gprs, preds, btrs;
};

class EncodingSweep : public ::testing::TestWithParam<SweepConfig> {};

Operand random_src(Prng& prng, SrcSpec spec, const ProcessorConfig& cfg,
                   bool zext) {
  switch (spec) {
    case SrcSpec::None:
      return Operand::none();
    case SrcSpec::Gpr:
      return Operand::r(prng.next_below(cfg.num_gprs));
    case SrcSpec::Pred:
      return Operand::r(prng.next_below(cfg.num_preds));
    case SrcSpec::Btr:
      return Operand::r(prng.next_below(cfg.num_btrs));
    case SrcSpec::LitOnly:
      return Operand::imm(static_cast<std::int32_t>(prng.next_below(1000)));
    case SrcSpec::GprOrLit:
      if (prng.next_below(2) == 0) {
        return Operand::r(prng.next_below(cfg.num_gprs));
      }
      if (zext) {
        return Operand::imm(static_cast<std::int32_t>(
            prng.next_below(1u << cfg.format().src_bits)));
      }
      return Operand::imm(prng.next_in(-(1 << (cfg.format().src_bits - 1)),
                                       (1 << (cfg.format().src_bits - 1)) - 1));
  }
  return Operand::none();
}

TEST_P(EncodingSweep, RandomInstructionsRoundtrip) {
  ProcessorConfig cfg = default_cfg();
  cfg.num_gprs = GetParam().gprs;
  cfg.num_preds = GetParam().preds;
  cfg.num_btrs = GetParam().btrs;
  cfg.validate();

  Prng prng(GetParam().gprs * 1000003u + GetParam().preds);
  int encoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Op op = static_cast<Op>(prng.next_below(kNumOps));
    const OpInfo& info = op_info(op);
    Instruction inst;
    inst.op = op;
    if (info.dest1 == RegFile::Gpr) inst.dest1 = prng.next_below(cfg.num_gprs);
    if (info.dest1 == RegFile::Pred) inst.dest1 = prng.next_below(cfg.num_preds);
    if (info.dest1 == RegFile::Btr) inst.dest1 = prng.next_below(cfg.num_btrs);
    if (info.dest2 == RegFile::Pred) inst.dest2 = prng.next_below(cfg.num_preds);
    inst.src1 = random_src(prng, info.src1, cfg, info.literal_zero_extends);
    inst.src2 = random_src(prng, info.src2, cfg, info.literal_zero_extends);
    inst.pred = prng.next_below(cfg.num_preds);

    if (!validate_instruction(inst, cfg).empty()) continue;  // e.g. reg cap
    const std::uint64_t word = encode_instruction(inst, cfg);
    EXPECT_EQ(decode_instruction(word, cfg), inst) << to_string(inst);
    ++encoded;
  }
  EXPECT_GT(encoded, 1000);  // the sweep actually exercised encodings
}

INSTANTIATE_TEST_SUITE_P(Formats, EncodingSweep,
                         ::testing::Values(SweepConfig{64, 32, 16},
                                           SweepConfig{32, 16, 8},
                                           SweepConfig{16, 4, 2},
                                           SweepConfig{64, 32, 64}));

}  // namespace
}  // namespace cepic
