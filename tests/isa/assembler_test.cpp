#include "isa/assembler.h"

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

TEST(Assembler, ParsesMinimalProgram)
{
    const Program p = assemble("HD.M m0\nCX m0, m1\n");
    ASSERT_EQ(p.size(), 2);
    EXPECT_EQ(p.numVariables(), 2);
    EXPECT_EQ(p.instructions()[0].op, Opcode::HD_M);
    EXPECT_EQ(p.instructions()[1].op, Opcode::CX);
    EXPECT_EQ(p.instructions()[1].m1, 1);
}

TEST(Assembler, HonorsHeaderVariableCount)
{
    const Program p =
        assemble("; lsqca program: 10 variables, 1 instructions\n"
                 "HD.M m0\n");
    EXPECT_EQ(p.numVariables(), 10);
}

TEST(Assembler, ParsesRegisterDirectives)
{
    const Program p = assemble("; lsqca program: 5 variables\n"
                               "; register data: m0..m3\n"
                               "; register anc: m4..m4\n"
                               "HD.M m4\n");
    ASSERT_EQ(p.registers().size(), 2u);
    EXPECT_EQ(p.registers()[0].name, "data");
    EXPECT_EQ(p.registers()[0].size, 4);
    EXPECT_EQ(p.registers()[1].name, "anc");
    EXPECT_EQ(p.registerOf(4), 1);
}

TEST(Assembler, ParsesValueArrows)
{
    const Program p = assemble("MZ.M m0 -> v2\nSK v2\n");
    ASSERT_EQ(p.size(), 2);
    EXPECT_EQ(p.instructions()[0].v0, 2);
    EXPECT_EQ(p.instructions()[1].op, Opcode::SK);
    EXPECT_EQ(p.numValues(), 3); // implicit allocation up to v2
}

TEST(Assembler, ParsesTGadgetSequence)
{
    const Program p = assemble("PM c0\n"
                               "MZZ.M c0, m3 -> v0\n"
                               "MX.C c0 -> v1\n"
                               "SK v0\n"
                               "PH.M m3\n");
    ASSERT_EQ(p.size(), 5);
    EXPECT_EQ(p.magicCount(), 1);
    EXPECT_EQ(p.instructions()[1].c0, 0);
    EXPECT_EQ(p.instructions()[1].m0, 3);
}

TEST(Assembler, RejectsUnknownMnemonic)
{
    EXPECT_THROW(assemble("FROB m0\n"), ConfigError);
}

TEST(Assembler, RejectsMalformedOperand)
{
    EXPECT_THROW(assemble("HD.M q0\n"), ConfigError);
    EXPECT_THROW(assemble("HD.M m\n"), ConfigError);
    EXPECT_THROW(assemble("HD.M mzz\n"), ConfigError);
}

TEST(Assembler, RejectsArityMismatch)
{
    EXPECT_THROW(assemble("HD.M m0, m1\n"), ConfigError);
    EXPECT_THROW(assemble("CX m0\n"), ConfigError);
    EXPECT_THROW(assemble("LD m0\n"), ConfigError);
}

TEST(Assembler, RejectsHeaderSmallerThanOperands)
{
    EXPECT_THROW(assemble("; lsqca program: 1 variables\nCX m0, m5\n"),
                 ConfigError);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    try {
        assemble("HD.M m0\nBAD m1\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

/** assemble(@p text) throws a ConfigError that names line @p line. */
void
expectRejectedAtLine(const std::string &text, int line)
{
    try {
        assemble(text);
        ADD_FAILURE() << "expected ConfigError for:\n" << text;
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "line " + std::to_string(line) + ":"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Assembler, RejectsIndicesThatDoNotFitTheirOperand)
{
    // Narrowed unchecked, m4294967296 would read as m0 and c4294967297
    // as c1, and a 20-digit index overflows even 64 bits.
    expectRejectedAtLine("; lsqca program: 2 variables\n"
                         "LD m4294967296, c0\n",
                         2);
    expectRejectedAtLine("LD m0, c4294967297\n", 1);
    expectRejectedAtLine("HD.M m99999999999999999999\n", 1);
    expectRejectedAtLine("HD.M m0\nMZ.M m0 -> v2147483647\n", 2);
    // CR slots are single bytes: c300 would wrap.
    expectRejectedAtLine("PM c300\n", 1);
    expectRejectedAtLine("LD m0, c128\n", 1);
}

TEST(Assembler, RejectsOutOfRangeDirectives)
{
    expectRejectedAtLine("; lsqca program: 4294967297 variables\n"
                         "HD.M m0\n",
                         1);
    expectRejectedAtLine("; lsqca program: many variables\nHD.M m0\n", 1);
    expectRejectedAtLine("; lsqca program: 5 variables\n"
                         "; register data: m0..m4294967299\n"
                         "HD.M m0\n",
                         2);
    expectRejectedAtLine("; lsqca program: 5 variables\n"
                         "; register data: m0..mx\n",
                         2);
    expectRejectedAtLine("; lsqca program: 5 variables\n"
                         "; register data: m3..m1\n",
                         2);
}

TEST(Assembler, RoundTripsHighestCrSlot)
{
    const auto top = static_cast<std::int8_t>(kMaxCrSlots - 1);
    Program original(2);
    Instruction ld;
    ld.op = Opcode::LD;
    ld.m0 = 1;
    ld.c0 = top;
    original.append(ld);
    Instruction zz;
    zz.op = Opcode::MZZ_C;
    zz.c0 = 0;
    zz.c1 = top;
    zz.v0 = original.newValue();
    original.append(zz);

    const std::string text = original.disassemble();
    ASSERT_NE(text.find("LD m1, c127"), std::string::npos) << text;
    const Program reparsed = assemble(text);
    EXPECT_EQ(reparsed.disassemble(), text);
    EXPECT_EQ(reparsed.instructions()[0].c0, top);
    EXPECT_EQ(reparsed.instructions()[1].c1, top);
}

TEST(Assembler, RoundTripsSmallProgram)
{
    Circuit circ(3);
    circ.h(0);
    circ.t(1);
    circ.cx(0, 2);
    circ.measZ(2);
    const Program original = translate(circ);
    const Program reparsed = assemble(original.disassemble());
    ASSERT_EQ(reparsed.size(), original.size());
    EXPECT_EQ(reparsed.numVariables(), original.numVariables());
    for (std::int64_t i = 0; i < original.size(); ++i) {
        const auto &a = original.instructions()[static_cast<std::size_t>(i)];
        const auto &b = reparsed.instructions()[static_cast<std::size_t>(i)];
        EXPECT_EQ(a.op, b.op) << "instruction " << i;
        EXPECT_EQ(a.str(), b.str()) << "instruction " << i;
    }
}

TEST(Assembler, RoundTripsWholeBenchmark)
{
    const Program original =
        translate(lowerToCliffordT(makeAdder(6)));
    const Program reparsed = assemble(original.disassemble());
    ASSERT_EQ(reparsed.size(), original.size());
    EXPECT_EQ(reparsed.disassemble(), original.disassemble());
    EXPECT_EQ(reparsed.magicCount(), original.magicCount());
    EXPECT_EQ(reparsed.registers().size(), original.registers().size());
}

TEST(Assembler, IgnoresBlankLinesAndComments)
{
    const Program p = assemble("\n  \n; just a note\nHD.M m0 ; trailing\n");
    EXPECT_EQ(p.size(), 1);
}

} // namespace
} // namespace lsqca
