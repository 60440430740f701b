#include "isa/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace lsqca {
namespace {

// Lvalue-only accessors: a range-for over a temporary's member, as in
// `for (inst : translate(c).instructions())`, must stay a compile error.
template <typename P>
constexpr bool kInstructionsCompile =
    requires { std::declval<P>().instructions(); };
template <typename P>
constexpr bool kRegistersCompile =
    requires { std::declval<P>().registers(); };
static_assert(kInstructionsCompile<const Program &>);
static_assert(!kInstructionsCompile<Program>);
static_assert(kRegistersCompile<const Program &>);
static_assert(!kRegistersCompile<Program>);

Instruction
makeLd(std::int32_t m, std::int32_t c)
{
    Instruction inst;
    inst.op = Opcode::LD;
    inst.m0 = m;
    inst.c0 = c;
    return inst;
}

TEST(Program, AppendValidatesMemoryOperands)
{
    Program p(4);
    EXPECT_NO_THROW(p.append(makeLd(3, 0)));
    EXPECT_THROW(p.append(makeLd(4, 0)), ConfigError);
    EXPECT_THROW(p.append(makeLd(-1, 0)), ConfigError);
}

TEST(Program, AppendValidatesRegisterOperands)
{
    Program p(2);
    Instruction inst;
    inst.op = Opcode::HD_C;
    EXPECT_THROW(p.append(inst), ConfigError); // missing c0
    inst.c0 = 0;
    EXPECT_NO_THROW(p.append(inst));

    Instruction zz;
    zz.op = Opcode::MZZ_C;
    zz.c0 = 0;
    zz.c1 = 0; // duplicate register
    zz.v0 = p.newValue();
    EXPECT_THROW(p.append(zz), ConfigError);
    zz.c1 = 1;
    EXPECT_NO_THROW(p.append(zz));
}

TEST(Program, AppendValidatesValues)
{
    Program p(2);
    Instruction mz;
    mz.op = Opcode::MZ_M;
    mz.m0 = 0;
    mz.v0 = 0; // not allocated yet
    EXPECT_THROW(p.append(mz), ConfigError);
    mz.v0 = p.newValue();
    EXPECT_NO_THROW(p.append(mz));
}

TEST(Program, DuplicateMemoryOperandsRejected)
{
    Program p(3);
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 1;
    cx.m1 = 1;
    EXPECT_THROW(p.append(cx), ConfigError);
}

TEST(Program, RegistersAndLookup)
{
    Program p(10);
    p.addRegister("control", 0, 4);
    p.addRegister("system", 4, 6);
    EXPECT_EQ(p.registerOf(0), 0);
    EXPECT_EQ(p.registerOf(5), 1);
    EXPECT_THROW(p.addRegister("bad", 8, 5), ConfigError); // overflows
}

TEST(Program, CountedInstructionsExcludesLoadStore)
{
    Program p(2);
    p.append(makeLd(0, 0));
    Instruction h;
    h.op = Opcode::HD_C;
    h.c0 = 0;
    p.append(h);
    Instruction st;
    st.op = Opcode::ST;
    st.m0 = 0;
    st.c0 = 0;
    p.append(st);
    EXPECT_EQ(p.size(), 3);
    EXPECT_EQ(p.countedInstructions(), 1);
}

TEST(Program, MagicCountCountsPm)
{
    Program p(1);
    Instruction pm;
    pm.op = Opcode::PM;
    pm.c0 = 0;
    p.append(pm);
    p.append(pm);
    EXPECT_EQ(p.magicCount(), 2);
}

TEST(Program, ReferenceCountsOverMemoryOperands)
{
    Program p(3);
    p.append(makeLd(0, 0));
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 0;
    cx.m1 = 2;
    p.append(cx);
    const auto refs = p.referenceCounts();
    EXPECT_EQ(refs[0], 2);
    EXPECT_EQ(refs[1], 0);
    EXPECT_EQ(refs[2], 1);
}

/** Brute-force reference for Program::prefixExtent(). */
PrefixExtent
scanExtent(const Program &p, std::int64_t limit)
{
    PrefixExtent extent;
    for (std::int64_t i = 0; i < limit; ++i) {
        const Instruction &inst =
            p.instructions()[static_cast<std::size_t>(i)];
        extent.maxSlot = std::max({extent.maxSlot, inst.c0, inst.c1});
        extent.maxValue = std::max(extent.maxValue, inst.v0);
    }
    return extent;
}

/** CR slots and values referenced out of order, some never at all. */
Program
scrambledSlotsProgram()
{
    Program p(4);
    for (int i = 0; i < 6; ++i)
        p.newValue();
    Instruction mzz;
    mzz.op = Opcode::MZZ_C;
    mzz.c0 = 3;
    mzz.c1 = 1;
    mzz.v0 = 4;
    p.append(mzz);
    p.append(makeLd(2, 0));
    Instruction mz;
    mz.op = Opcode::MZ_M;
    mz.m0 = 1;
    mz.v0 = 1;
    p.append(mz);
    Instruction sk;
    sk.op = Opcode::SK;
    sk.v0 = 5;
    p.append(sk);
    p.append(makeLd(0, 6));
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 3;
    cx.m1 = 0;
    p.append(cx);
    mzz.c0 = 2;
    mzz.c1 = 5;
    mzz.v0 = 0;
    p.append(mzz);
    return p;
}

TEST(Program, PrefixExtentMatchesBruteForceAtEveryLimit)
{
    const Program p = scrambledSlotsProgram();
    // Descending, so no query can be served by a scan of a longer one.
    for (std::int64_t limit = p.size(); limit >= 0; --limit) {
        const PrefixExtent want = scanExtent(p, limit);
        for (int repeat = 0; repeat < 2; ++repeat) { // miss, then memo
            const PrefixExtent got = p.prefixExtent(limit);
            EXPECT_EQ(got.maxSlot, want.maxSlot) << "limit " << limit;
            EXPECT_EQ(got.maxValue, want.maxValue) << "limit " << limit;
        }
    }
    EXPECT_EQ(p.prefixExtent(0).maxSlot, -1);
    EXPECT_EQ(p.prefixExtent(0).maxValue, -1);
    EXPECT_EQ(p.prefixExtent(p.size()).maxSlot, 6);
    EXPECT_EQ(p.prefixExtent(p.size()).maxValue, 5);
    // Limits past the end clamp to the whole program.
    EXPECT_EQ(p.prefixExtent(p.size() + 100).maxSlot, 6);
}

TEST(Program, AppendInvalidatesPrefixExtent)
{
    Program p = scrambledSlotsProgram();
    const std::int64_t before = p.size();
    EXPECT_EQ(p.prefixExtent(before).maxSlot, 6);
    EXPECT_EQ(p.prefixExtent(before + 1).maxSlot, 6);
    p.append(makeLd(1, 9));
    // The same query answered before the append now reaches the new
    // instruction; shorter prefixes are unchanged.
    EXPECT_EQ(p.prefixExtent(before + 1).maxSlot, 9);
    EXPECT_EQ(p.prefixExtent(before).maxSlot, 6);
    const Program copy = p;
    EXPECT_EQ(copy.prefixExtent(copy.size()).maxSlot, 9);
}

TEST(Program, DisassemblyFormat)
{
    Program p(2);
    p.addRegister("q", 0, 2);
    p.append(makeLd(1, 0));
    const std::string out = p.disassemble();
    EXPECT_NE(out.find("; lsqca program: 2 variables"), std::string::npos);
    EXPECT_NE(out.find("; register q: m0..m1"), std::string::npos);
    EXPECT_NE(out.find("LD m1, c0"), std::string::npos);
}

TEST(Program, DisassemblyTruncation)
{
    Program p(1);
    for (int i = 0; i < 10; ++i) {
        Instruction h;
        h.op = Opcode::HD_M;
        h.m0 = 0;
        p.append(h);
    }
    const std::string out = p.disassemble(3);
    EXPECT_NE(out.find("... 7 more instructions"), std::string::npos);
}

} // namespace
} // namespace lsqca
