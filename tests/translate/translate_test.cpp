#include "translate/translate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"

namespace lsqca {
namespace {

std::vector<Opcode>
opcodesOf(const Program &p)
{
    std::vector<Opcode> ops;
    for (const auto &inst : p.instructions())
        ops.push_back(inst.op);
    return ops;
}

TEST(Translate, HadamardBecomesInMemory)
{
    Circuit c(1);
    c.h(0);
    const Program p = translate(c);
    ASSERT_EQ(p.size(), 1);
    EXPECT_EQ(p.instructions()[0].op, Opcode::HD_M);
    EXPECT_EQ(p.instructions()[0].m0, 0);
}

TEST(Translate, PhaseAndSdgBecomePhM)
{
    Circuit c(1);
    c.s(0);
    c.sdg(0);
    const Program p = translate(c);
    ASSERT_EQ(p.size(), 2);
    EXPECT_EQ(p.instructions()[0].op, Opcode::PH_M);
    EXPECT_EQ(p.instructions()[1].op, Opcode::PH_M);
}

TEST(Translate, PauliGatesAreElided)
{
    Circuit c(2);
    c.x(0);
    c.y(1);
    c.z(0);
    const Program p = translate(c);
    EXPECT_EQ(p.size(), 0);
}

TEST(Translate, TGadgetShape)
{
    Circuit c(1);
    c.t(0);
    const Program p = translate(c);
    const auto ops = opcodesOf(p);
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_EQ(ops[0], Opcode::PM);
    EXPECT_EQ(ops[1], Opcode::MZZ_M);
    EXPECT_EQ(ops[2], Opcode::MX_C);
    EXPECT_EQ(ops[3], Opcode::SK);
    EXPECT_EQ(ops[4], Opcode::PH_M);
    // The gadget touches the target in memory.
    EXPECT_EQ(p.instructions()[1].m0, 0);
    EXPECT_EQ(p.instructions()[4].m0, 0);
    // The SK consumes the ZZ outcome.
    EXPECT_EQ(p.instructions()[3].v0, p.instructions()[1].v0);
    EXPECT_EQ(p.magicCount(), 1);
}

TEST(Translate, TdgSameShapeAsT)
{
    Circuit c(1);
    c.tdg(0);
    const Program p = translate(c);
    EXPECT_EQ(p.size(), 5);
    EXPECT_EQ(p.magicCount(), 1);
}

TEST(Translate, MagicSlotsRoundRobin)
{
    Circuit c(1);
    c.t(0);
    c.t(0);
    const Program p = translate(c);
    EXPECT_NE(p.instructions()[0].c0, p.instructions()[5].c0);
}

TEST(Translate, CxAndCzBecomeOptimizedInstructions)
{
    Circuit c(3);
    c.cx(0, 1);
    c.cz(1, 2);
    const Program p = translate(c);
    ASSERT_EQ(p.size(), 2);
    EXPECT_EQ(p.instructions()[0].op, Opcode::CX);
    EXPECT_EQ(p.instructions()[0].m0, 0);
    EXPECT_EQ(p.instructions()[0].m1, 1);
    EXPECT_EQ(p.instructions()[1].op, Opcode::CZ);
}

TEST(Translate, PrepAndMeasurementMapping)
{
    Circuit c(2);
    c.prepZ(0);
    c.prepX(1);
    const ClassicalBit b0 = c.measZ(0);
    const ClassicalBit b1 = c.measX(1);
    const Program p = translate(c);
    const auto ops = opcodesOf(p);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0], Opcode::PZ_M);
    EXPECT_EQ(ops[1], Opcode::PP_M);
    EXPECT_EQ(ops[2], Opcode::MZ_M);
    EXPECT_EQ(ops[3], Opcode::MX_M);
    // Classical bits map 1:1 onto the first program values.
    EXPECT_EQ(p.instructions()[2].v0, b0);
    EXPECT_EQ(p.instructions()[3].v0, b1);
}

TEST(Translate, ConditionedGateGetsSkGuard)
{
    Circuit c(2);
    const ClassicalBit b = c.measZ(0);
    c.appendConditioned(GateKind::S, 1, b);
    const Program p = translate(c);
    const auto ops = opcodesOf(p);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0], Opcode::MZ_M);
    EXPECT_EQ(ops[1], Opcode::SK);
    EXPECT_EQ(p.instructions()[1].v0, b);
    EXPECT_EQ(ops[2], Opcode::PH_M);
}

TEST(Translate, ConditionedCzFromAndUncompute)
{
    Circuit c(3);
    c.andUncompute(0, 1, 2);
    const Program p = translate(lowerToCliffordT(c));
    const auto ops = opcodesOf(p);
    // MX.M (outcome), SK, CZ, PZ.M (ancilla recycle).
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0], Opcode::MX_M);
    EXPECT_EQ(ops[1], Opcode::SK);
    EXPECT_EQ(ops[2], Opcode::CZ);
    EXPECT_EQ(ops[3], Opcode::PZ_M);
}

TEST(Translate, NonInMemoryUsesLoadStore)
{
    TranslateOptions opts;
    opts.inMemoryOps = false;
    Circuit c(1);
    c.h(0);
    const Program p = translate(c, opts);
    const auto ops = opcodesOf(p);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0], Opcode::LD);
    EXPECT_EQ(ops[1], Opcode::HD_C);
    EXPECT_EQ(ops[2], Opcode::ST);
    EXPECT_EQ(p.countedInstructions(), 1);
}

TEST(Translate, NonInMemoryTGadgetUsesCrMeasurement)
{
    TranslateOptions opts;
    opts.inMemoryOps = false;
    Circuit c(1);
    c.t(0);
    const Program p = translate(c, opts);
    const auto ops = opcodesOf(p);
    ASSERT_EQ(ops.size(), 7u);
    EXPECT_EQ(ops[0], Opcode::LD);
    EXPECT_EQ(ops[1], Opcode::PM);
    EXPECT_EQ(ops[2], Opcode::MZZ_C);
    EXPECT_EQ(ops[3], Opcode::MX_C);
    EXPECT_EQ(ops[4], Opcode::SK);
    EXPECT_EQ(ops[5], Opcode::PH_C);
    EXPECT_EQ(ops[6], Opcode::ST);
    // Both CR cells are in play: the loaded target and the magic state.
    EXPECT_NE(p.instructions()[0].c0, p.instructions()[1].c0);
}

TEST(Translate, RegisterMetadataCopied)
{
    Circuit c;
    c.addRegister("control", 2);
    c.addRegister("system", 3);
    c.h(0);
    const Program p = translate(c);
    ASSERT_EQ(p.registers().size(), 2u);
    EXPECT_EQ(p.registers()[0].name, "control");
    EXPECT_EQ(p.registers()[1].size, 3);
    EXPECT_EQ(p.numVariables(), 5);
}

TEST(Translate, RejectsUnloweredMacros)
{
    Circuit c(3);
    c.ccx(0, 1, 2);
    EXPECT_THROW(translate(c), ConfigError);
}

TEST(Translate, RejectsTooFewSlots)
{
    Circuit c(1);
    TranslateOptions opts;
    opts.crSlots = 1;
    EXPECT_THROW(translate(c, opts), ConfigError);
}

TEST(Translate, RejectsMoreSlotsThanInstructionsHold)
{
    Circuit c(1);
    for (std::int32_t i = 0; i < kMaxCrSlots; ++i)
        c.t(0);
    TranslateOptions opts;
    opts.crSlots = kMaxCrSlots + 1;
    EXPECT_THROW(translate(c, opts), ConfigError);
    EXPECT_THROW(lowerAndTranslate(c, opts), ConfigError);
    EXPECT_THROW(
        lowerAndTranslate(c, opts, ToffoliStyle::Textbook7T, 1),
        ConfigError);
    // At the cap, one T gadget per slot names every slot, the last
    // one included.
    opts.crSlots = kMaxCrSlots;
    const Program p = lowerAndTranslate(c, opts);
    std::int32_t highest = -1;
    for (const Instruction &inst : p.instructions())
        highest = std::max<std::int32_t>(highest, inst.c0);
    EXPECT_EQ(highest, kMaxCrSlots - 1);
}

TEST(Translate, NonInMemoryMeasurementStaysInMemory)
{
    // Measurements need no auxiliary cells (Table I: 0 beats), so even
    // the LD/ST translation leaves them as in-memory instructions.
    TranslateOptions opts;
    opts.inMemoryOps = false;
    Circuit c(1);
    c.measZ(0);
    const Program p = translate(c, opts);
    ASSERT_EQ(p.size(), 1);
    EXPECT_EQ(p.instructions()[0].op, Opcode::MZ_M);
}

TEST(Translate, GuardedCxKeepsOperandOrder)
{
    Circuit c(3);
    const ClassicalBit b = c.measZ(2);
    Gate g;
    g.kind = GateKind::CX;
    g.qubits[0] = 0;
    g.qubits[1] = 1;
    g.condBit = b;
    c.append(g);
    const Program p = translate(c);
    ASSERT_EQ(p.size(), 3); // MZ, SK, CX
    EXPECT_EQ(p.instructions()[1].op, Opcode::SK);
    EXPECT_EQ(p.instructions()[2].m0, 0);
    EXPECT_EQ(p.instructions()[2].m1, 1);
}

TEST(Translate, ValueSlotsNeverCollide)
{
    // Gadget-internal values must not alias circuit classical bits.
    Circuit c(2);
    const ClassicalBit b = c.measZ(0);
    c.t(1);
    const Program p = translate(c);
    const Instruction &zz = p.instructions()[2]; // MZ, PM, MZZ.M, ...
    EXPECT_EQ(zz.op, Opcode::MZZ_M);
    EXPECT_NE(zz.v0, b);
    EXPECT_GE(p.numValues(), 3);
}

TEST(Translate, CountedInstructionsMatchSimulatorDenominator)
{
    const Circuit lowered = lowerToCliffordT(makeAdder(5));
    TranslateOptions opts;
    opts.inMemoryOps = false;
    const Program p = translate(lowered, opts);
    EXPECT_LT(p.countedInstructions(), p.size()); // LD/ST excluded
    EXPECT_GT(p.countedInstructions(), 0);
}

TEST(Translate, SdgEmitsSingleInstructionLikeS)
{
    Circuit c(1);
    c.s(0);
    const auto s_count = translate(c).size();
    Circuit c2(1);
    c2.sdg(0);
    EXPECT_EQ(translate(c2).size(), s_count);
}

TEST(Translate, WholeBenchmarkTranslates)
{
    const Circuit lowered = lowerToCliffordT(makeAdder(8));
    const Program p = translate(lowered);
    EXPECT_GT(p.size(), 0);
    EXPECT_EQ(p.numVariables(), lowered.numQubits());
    EXPECT_EQ(p.magicCount(), lowered.tCount());
}

} // namespace
} // namespace lsqca
