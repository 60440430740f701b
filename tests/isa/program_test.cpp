#include "isa/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

/** Highest CR slot and value id a prefix names; -1 if none. */
struct BruteExtent
{
    std::int32_t maxSlot = -1;
    std::int32_t maxValue = -1;
};

/** Brute-force reference for Program::prefixExtent(). */
BruteExtent
scanExtent(const Program &p, std::int64_t limit)
{
    BruteExtent extent;
    for (std::int64_t i = 0; i < limit; ++i) {
        const Instruction &inst =
            p.instructions()[static_cast<std::size_t>(i)];
        extent.maxSlot = std::max({extent.maxSlot, inst.c0, inst.c1});
        extent.maxValue = std::max(extent.maxValue, inst.v0);
    }
    return extent;
}

/** Value ids a prefix extent's slot table covers: highest named + 1. */
std::int32_t
valuesCovered(const PrefixExtent &extent)
{
    return static_cast<std::int32_t>(extent.values->slotOf.size());
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
        const BruteExtent want = scanExtent(p, limit);
        std::shared_ptr<const ValueSlots> first;
        for (int repeat = 0; repeat < 2; ++repeat) { // miss, then memo
            const PrefixExtent got = p.prefixExtent(limit);
            EXPECT_EQ(got.maxSlot, want.maxSlot) << "limit " << limit;
            ASSERT_NE(got.values, nullptr) << "limit " << limit;
            EXPECT_EQ(valuesCovered(got), want.maxValue + 1)
                << "limit " << limit;
            if (repeat == 0)
                first = got.values;
            else
                EXPECT_EQ(got.values, first) << "limit " << limit;
        }
    }
    EXPECT_EQ(p.prefixExtent(0).maxSlot, -1);
    EXPECT_EQ(valuesCovered(p.prefixExtent(0)), 0);
    EXPECT_EQ(p.prefixExtent(p.size()).maxSlot, 6);
    EXPECT_EQ(valuesCovered(p.prefixExtent(p.size())), 6);
    // Limits past the end clamp to the whole program.
    EXPECT_EQ(p.prefixExtent(p.size() + 100).maxSlot, 6);
    EXPECT_EQ(valuesCovered(p.prefixExtent(p.size() + 100)), 6);
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

/** A random stream of value writes (MZ.C, MZ.M) and reads (SK). */
Program
randomValueProgram(std::uint32_t seed)
{
    std::uint32_t state = seed * 2654435761u + 1;
    const auto next = [&state](std::uint32_t bound) {
        state = state * 1664525u + 1013904223u;
        return static_cast<std::int32_t>((state >> 8) % bound);
    };
    Program p(2);
    const std::int32_t values = 1 + next(12);
    for (std::int32_t v = 0; v < values; ++v)
        p.newValue();
    for (int i = 0; i < 40; ++i) {
        Instruction inst;
        switch (next(3)) {
          case 0:
            inst.op = Opcode::MZ_C;
            inst.c0 = 0;
            break;
          case 1:
            inst.op = Opcode::MZ_M;
            inst.m0 = next(2);
            break;
          default:
            inst.op = Opcode::SK;
            break;
        }
        inst.v0 = next(static_cast<std::uint32_t>(values));
        p.append(inst);
    }
    return p;
}

TEST(Program, ValueSlotsKeepEveryValueApartWhileItIsInUse)
{
    for (std::uint32_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Program p = randomValueProgram(seed);
        const auto slots = p.prefixExtent(p.size()).values;
        ASSERT_LE(slots->slotOf.size(),
                  static_cast<std::size_t>(p.numValues()));
        // Each value's span: first to last instruction naming it.
        const auto n = static_cast<std::size_t>(p.numValues());
        std::vector<std::int64_t> first(n, -1), last(n, -1);
        std::vector<bool> readFirst(n, false);
        for (std::int64_t i = 0; i < p.size(); ++i) {
            const Instruction &inst =
                p.instructions()[static_cast<std::size_t>(i)];
            const auto v = static_cast<std::size_t>(inst.v0);
            if (first[v] < 0) {
                first[v] = i;
                readFirst[v] = inst.op == Opcode::SK;
            }
            last[v] = i;
        }
        for (std::size_t a = 0; a < n; ++a) {
            if (first[a] < 0)
                continue;
            ASSERT_LT(a, slots->slotOf.size());
            const std::int32_t slot = slots->slotOf[a];
            ASSERT_GE(slot, 0);
            ASSERT_LT(slot, slots->count);
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b || first[b] < 0 || slots->slotOf[b] != slot)
                    continue;
                // Overlapping spans never share a slot.
                EXPECT_TRUE(last[a] < first[b] || last[b] < first[a])
                    << "values " << a << " and " << b;
                // A value first named by a read gets a slot no earlier
                // value used, so it reads 0.
                if (readFirst[a]) {
                    EXPECT_GT(first[b], first[a])
                        << "values " << a << " and " << b;
                }
            }
        }
    }
}

TEST(Program, ValueSlotsReuseSlotsOnceAValueIsDone)
{
    // v0..v3 are each written and then read before the next is
    // written: one slot serves them all. v4 is read before any write:
    // it needs a slot of its own.
    Program p(1);
    for (int v = 0; v < 5; ++v)
        p.newValue();
    for (std::int32_t v = 0; v < 4; ++v) {
        Instruction mz;
        mz.op = Opcode::MZ_C;
        mz.c0 = 0;
        mz.v0 = v;
        p.append(mz);
        Instruction sk;
        sk.op = Opcode::SK;
        sk.v0 = v;
        p.append(sk);
    }
    Instruction sk;
    sk.op = Opcode::SK;
    sk.v0 = 4;
    p.append(sk);
    const auto slots = p.prefixExtent(p.size()).values;
    EXPECT_EQ(slots->count, 2);
    EXPECT_EQ(slots->slotOf, (std::vector<std::int32_t>{0, 0, 0, 0, 1}));
    EXPECT_EQ(p.prefixExtent(p.size()).values, slots); // memoized
    // A shorter prefix names fewer values and needs one slot.
    EXPECT_EQ(p.prefixExtent(4).values->count, 1);
    EXPECT_EQ(p.prefixExtent(4).values->slotOf.size(), 2u);

    // Appending drops the memo: v0 named again extends its span over
    // v4's read, so the two can no longer share a slot.
    Instruction again;
    again.op = Opcode::SK;
    again.v0 = 0;
    p.append(again);
    const auto after = p.prefixExtent(p.size()).values;
    EXPECT_NE(after, slots);
    EXPECT_NE(after->slotOf[0], after->slotOf[4]);
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
