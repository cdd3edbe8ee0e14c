#include <gtest/gtest.h>

#include "asmtool/assembler.hpp"
#include "sim/simulator.hpp"
#include "support/text.hpp"

namespace cepic {
namespace {

using asmtool::assemble;

TEST(Assembler, BundlesAndNopPadding) {
  const Program p = assemble(
      "mov r1, #5 ; add r2, r1, #2 ;;\n"
      "halt ;;\n",
      ProcessorConfig{});
  ASSERT_EQ(p.bundle_count(), 2u);
  EXPECT_EQ(p.code[0].op, Op::MOV);
  EXPECT_EQ(p.code[1].op, Op::ADD);
  EXPECT_TRUE(p.code[2].is_nop());
  EXPECT_TRUE(p.code[3].is_nop());
}

TEST(Assembler, MultiLineBundle) {
  // A MultiOp may span lines; `;;` ends it.
  const Program p = assemble(
      "mov r1, #5\n"
      "mov r2, #6 ;;\n"
      "halt ;;\n",
      ProcessorConfig{});
  ASSERT_EQ(p.bundle_count(), 2u);
  EXPECT_EQ(p.code[1].op, Op::MOV);
}

TEST(Assembler, LabelsResolveToBundles) {
  const Program p = assemble(
      "start:\n"
      "pbr b1, @target ;;\n"
      "bru b1 ;;\n"
      "mov r5, #1 ;;\n"
      "target:\n"
      "halt ;;\n",
      ProcessorConfig{});
  EXPECT_EQ(p.code_symbols.at("start"), 0u);
  EXPECT_EQ(p.code_symbols.at("target"), 3u);
  EXPECT_EQ(p.code[0].src1.lit, 3);
}

TEST(Assembler, EntryDirective) {
  const Program p = assemble(
      "pad: nop ;;\n"
      ".entry main\n"
      "main: halt ;;\n",
      ProcessorConfig{});
  EXPECT_EQ(p.entry_bundle, 1u);
}

TEST(Assembler, DataSectionAndSymbols) {
  const Program p = assemble(
      ".data\n"
      ".global table 4 = 1 2 0xFF\n"
      ".global scratch 2\n"
      ".text\n"
      "mov r1, @table ;;\n"
      "mov r2, @scratch ;;\n"
      "halt ;;\n",
      ProcessorConfig{});
  EXPECT_EQ(p.data_symbols.at("table"), kDataBase);
  EXPECT_EQ(p.data_symbols.at("scratch"), kDataBase + 16);
  EXPECT_EQ(p.data.size(), 24u);
  EXPECT_EQ(p.data[3], 1);          // big-endian word 1
  EXPECT_EQ(p.data[11], 0xFF);      // third word
  EXPECT_EQ(p.code[0].src1.lit, static_cast<std::int32_t>(kDataBase));
}

TEST(Assembler, GuardedOps) {
  const Program p = assemble(
      "cmpp.lt p1, p2, r3, #10 ;;\n"
      "(p1) add r4, r4, #1 ;;\n"
      "halt ;;\n",
      ProcessorConfig{});
  EXPECT_EQ(p.code[0].op, Op::CMPP_LT);
  EXPECT_EQ(p.code[0].dest2, 2u);
  EXPECT_EQ(p.code[4].pred, 1u);
}

TEST(Assembler, CommentsIgnored) {
  const Program p = assemble(
      "// full line comment\n"
      "mov r1, #5 ;; // trailing comment\n"
      "halt ;;\n",
      ProcessorConfig{});
  EXPECT_EQ(p.bundle_count(), 2u);
}

TEST(Assembler, RetargetsViaConfigWithoutRecompilation) {
  // The same source assembles to different widths purely from the
  // configuration file (paper §4.2).
  const char* src =
      "mov r1, #1 ; mov r2, #2 ;;\n"
      "halt ;;\n";
  const Program wide = asmtool::assemble(
      src, ProcessorConfig::from_text("issue_width = 4\n"));
  const Program narrow = asmtool::assemble(
      src, ProcessorConfig::from_text("issue_width = 2\n"));
  EXPECT_EQ(wide.code.size(), 8u);
  EXPECT_EQ(narrow.code.size(), 4u);
}

TEST(Assembler, RejectsOverWideBundle) {
  ProcessorConfig cfg;
  cfg.issue_width = 2;
  EXPECT_THROW(
      assemble("mov r1, #1 ; mov r2, #2 ; mov r3, #3 ;;\nhalt ;;\n", cfg),
      AsmError);
}

TEST(Assembler, RejectsFunctionalUnitOversubscription) {
  // Two memory ops in one MultiOp, but there is a single LSU.
  EXPECT_THROW(assemble("ldw r2, r1, #0 ; ldw r3, r1, #4 ;;\nhalt ;;\n",
                        ProcessorConfig{}),
               AsmError);
  // Two branches, single BRU.
  EXPECT_THROW(assemble("bru b1 ; bru b2 ;;\nhalt ;;\n", ProcessorConfig{}),
               AsmError);
  // Five ALU ops would exceed issue width anyway; use a 2-ALU config
  // with width 4 and three adds.
  ProcessorConfig cfg;
  cfg.num_alus = 2;
  EXPECT_THROW(
      assemble("add r2, r2, #1 ; add r3, r3, #1 ; add r4, r4, #1 ;;\n"
               "halt ;;\n",
               cfg),
      AsmError);
}

TEST(Assembler, RejectsUnknownMnemonic) {
  EXPECT_THROW(assemble("frob r1, r2 ;;\n", ProcessorConfig{}), AsmError);
}

TEST(Assembler, RejectsBadOperands) {
  const ProcessorConfig cfg;
  EXPECT_THROW(assemble("add r1 ;;\n", cfg), AsmError);               // missing
  EXPECT_THROW(assemble("add r1, r2, r3, r4 ;;\n", cfg), AsmError);   // extra
  EXPECT_THROW(assemble("add p1, r2, r3 ;;\n", cfg), AsmError);       // file
  EXPECT_THROW(assemble("bru #3 ;;\n", cfg), AsmError);               // lit
  EXPECT_THROW(assemble("add r1, r2, #99999 ;;\n", cfg), AsmError);   // range
  EXPECT_THROW(assemble("add r99, r2, #1 ;;\n", cfg), AsmError);      // reg

  // Each used to be truncated to 32 bits and assemble as something else
  // (r4294967297 as r1, #4294967296 as #0). The bad number is on line 2.
  const struct {
    const char* line;
    const char* message;
  } cases[] = {
      {"mov r4294967297, #1 ;;", "register `r4294967297` out of range"},
      {"mov r1, #4294967296 ;;",
       "literal `#4294967296` does not fit in 32 bits"},
      {"mov r1, #-2147483649 ;;",
       "literal `#-2147483649` does not fit in 32 bits"},
      {"(p4294967297) mov r1, #1 ;;",
       "guard predicate `p4294967297` out of range"},
      {".global g 4294967297", "bad global size"},
      {".global g 2 = 4294967296", "word `4294967296` does not fit in 32 bits"},
      {".global g 1073741824",
       "global `g` does not fit the 32-bit data address space"},
  };
  for (const auto& c : cases) {
    try {
      assemble(std::string("halt ;;\n") + c.line + "\n", cfg);
      ADD_FAILURE() << "accepted: " << c.line;
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), 2) << c.line;
      EXPECT_EQ(std::string(e.what()),
                std::string("asm line 2: ") + c.message);
    }
  }
  // The widest values that do fit still assemble.
  EXPECT_NO_THROW(assemble(".global g 2 = 0xFFFFFFFF -2147483648\n", cfg));
  EXPECT_EQ(assemble("mov r1, #0xFFFFFFFF ;;\n", cfg).code[0].src1.lit, -1);
}

TEST(Assembler, RejectsDataImageLargerThanMemory) {
  // The data image must fit the simulated memory (4 MiB by default): a
  // 4 GB global fails on its line before anything is allocated.
  const ProcessorConfig cfg;
  try {
    assemble("halt ;;\n.global small 4\n.global g 1000000000\n", cfg);
    ADD_FAILURE() << "accepted a 4 GB global";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(std::string(e.what()),
              "asm line 3: global `g` (1000000000 words) does not fit in "
              "the 4194304-byte memory");
  }
  // The bound counts the globals before it and the data base.
  const std::string fits = cat(".global g ", ((1u << 22) - kDataBase) / 4);
  EXPECT_EQ(assemble(fits, cfg).data.size(), (1u << 22) - kDataBase);
  EXPECT_THROW(assemble(".global a 1\n" + fits, cfg), AsmError);
  // A larger memory admits a larger image.
  const std::uint64_t big = std::uint64_t{1} << 24;
  EXPECT_THROW(assemble(".global g 2000000\n", cfg), AsmError);
  EXPECT_EQ(assemble(".global g 2000000\n", cfg, big).data.size(), 8000000u);
}

TEST(Assembler, RejectsUndefinedSymbols) {
  EXPECT_THROW(assemble("pbr b1, @nowhere ;;\nhalt ;;\n", ProcessorConfig{}),
               AsmError);
  EXPECT_THROW(assemble("mov r1, @nodata ;;\nhalt ;;\n", ProcessorConfig{}),
               AsmError);
}

TEST(Assembler, RejectsDuplicateLabel) {
  EXPECT_THROW(assemble("a: nop ;;\na: halt ;;\n", ProcessorConfig{}),
               AsmError);
}

TEST(Assembler, RejectsDanglingOps) {
  EXPECT_THROW(assemble("mov r1, #1\n", ProcessorConfig{}), AsmError);
}

TEST(Assembler, RejectsBranchTargetPastEnd) {
  EXPECT_THROW(assemble("pbr b1, #99 ;;\nhalt ;;\n", ProcessorConfig{}),
               AsmError);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("nop ;;\nnop ;;\nfrob ;;\n", ProcessorConfig{});
    FAIL();
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Assembler, AssembledProgramRunsOnSimulator) {
  const Program p = assemble(
      ".data\n"
      ".global v 1 = 41\n"
      ".text\n"
      "mov r10, @v ;;\n"
      "ldw r11, r10, #0 ;;\n"
      "add r11, r11, #1 ;;\n"
      "out r11 ; halt ;;\n",
      ProcessorConfig{});
  EpicSimulator sim(p);
  sim.run();
  ASSERT_EQ(sim.output().size(), 1u);
  EXPECT_EQ(sim.output()[0], 42u);
}

TEST(Disassembler, RoundtripPreservesEncoding) {
  const Program p = assemble(
      ".data\n"
      ".global tab 3 = 7 8 9\n"
      ".text\n"
      ".entry go\n"
      "go:\n"
      "mov r10, @tab ; pbr b1, @done ;;\n"
      "ldw r11, r10, #4 ;;\n"
      "cmpp.gt p1, p2, r11, #5 ;;\n"
      "(p1) out r11 ;;\n"
      "bru b1 ;;\n"
      "done: halt ;;\n",
      ProcessorConfig{});
  const std::string text = asmtool::disassemble(p);
  const Program q = assemble(text, p.config);
  EXPECT_EQ(p.encode_code(), q.encode_code());
  EXPECT_EQ(p.data, q.data);
  EXPECT_EQ(p.entry_bundle, q.entry_bundle);
}

TEST(Disassembler, ReadsOnlyTheDataImage) {
  // Symbols a decoded CEPX may carry outside the data image: one past
  // the end, one below the data base, one running past the last byte.
  Program p = assemble(".global g 1 = 7\nhalt ;;\n", ProcessorConfig{});
  p.data_symbols["far"] = kDataBase + 1000;
  p.data_symbols["low"] = 0;
  const std::string text = asmtool::disassemble(p);
  EXPECT_NE(text.find(".global low 16\n"), std::string::npos) << text;
  EXPECT_NE(text.find(".global g 250 = 0x7\n"), std::string::npos) << text;
  EXPECT_NE(text.find(".global far 0\n"), std::string::npos) << text;
}

TEST(Disassembler, MentionsLabelsAndGlobals) {
  const Program p = assemble(
      ".data\n.global g 2\n.text\nstart: halt ;;\n", ProcessorConfig{});
  const std::string text = asmtool::disassemble(p);
  EXPECT_NE(text.find("start:"), std::string::npos);
  EXPECT_NE(text.find(".global g 2"), std::string::npos);
}

}  // namespace
}  // namespace cepic
