#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "common/error.h"
#include "isa/assembler.h"
#include "sim/collectors/trace_collector.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

Program
emptyProgram(std::int32_t vars = 2)
{
    return Program(vars);
}

Instruction
inst1M(Opcode op, std::int32_t m, std::int32_t v = -1)
{
    Instruction inst;
    inst.op = op;
    inst.m0 = m;
    inst.v0 = v;
    return inst;
}

/** @p op's breakdown row (recordBreakdown); an empty row if it never ran. */
OpcodeSplit
rowOf(const SimResult &r, Opcode op)
{
    for (const OpcodeSplit &row : r.breakdown)
        if (row.op == op)
            return row;
    return {op, 0, 0, {}};
}

/** The Fig. 8 vectors of one run of @p p. */
collectors::TraceCollector
traceOf(const Program &p, SimOptions opts)
{
    collectors::TraceCollector trace;
    opts.observers = {&trace};
    simulate(p, opts);
    return trace;
}

TEST(Simulator, EmptyProgramTakesZeroBeats)
{
    const Program p = emptyProgram();
    SimOptions opts;
    const SimResult r = simulate(p, opts);
    EXPECT_EQ(r.execBeats, 0);
    EXPECT_EQ(r.instructionsSimulated, 0);
    EXPECT_EQ(r.cpi, 0.0);
}

TEST(Simulator, ConventionalHadamardTakesThreeBeats)
{
    Program p(1);
    p.append(inst1M(Opcode::HD_M, 0));
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 3);
    EXPECT_EQ(r.countedInstructions, 1);
    EXPECT_DOUBLE_EQ(r.cpi, 3.0);
}

TEST(Simulator, ConventionalPhaseTakesTwoBeats)
{
    Program p(1);
    p.append(inst1M(Opcode::PH_M, 0));
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 2);
}

TEST(Simulator, IndependentOpsOverlapOnConventional)
{
    Program p(4);
    for (std::int32_t q = 0; q < 4; ++q)
        p.append(inst1M(Opcode::HD_M, q));
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 3); // unlimited ILP
}

TEST(Simulator, ConventionalOverridesTheSamKind)
{
    // simulateConventional() runs the conventional machine whatever
    // arch.sam says: the four H's overlap as on the default machine,
    // where a point-SAM machine serializes them on its scan cell.
    Program p(4);
    for (std::int32_t q = 0; q < 4; ++q)
        p.append(inst1M(Opcode::HD_M, q));
    const SimResult point =
        simulateConventional(p, {.arch = {.sam = SamKind::Point}});
    EXPECT_EQ(point.execBeats, 3);
    EXPECT_EQ(point.execBeats, simulateConventional(p).execBeats);
    EXPECT_DOUBLE_EQ(point.density(), 0.5);
    EXPECT_GE(simulate(p, {.arch = {.sam = SamKind::Point}}).execBeats, 12);
}

TEST(Simulator, DependentOpsSerializeOnSameQubit)
{
    Program p(1);
    p.append(inst1M(Opcode::HD_M, 0));
    p.append(inst1M(Opcode::PH_M, 0));
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 5);
}

TEST(Simulator, PointSamSerializesOnScanCell)
{
    // Two H's on different qubits share the single scan cell, so the
    // point-SAM machine cannot overlap them.
    Program p(9);
    p.append(inst1M(Opcode::HD_M, 0));
    p.append(inst1M(Opcode::HD_M, 5));
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    const SimResult r = simulate(p, opts);
    EXPECT_GE(r.execBeats, 6); // at least 2 x 3-beat ops, serialized
}

TEST(Simulator, TwoBanksRestoreOverlap)
{
    // Variables deal round-robin: 0 -> bank0, 1 -> bank1; the two scan
    // cells work in parallel.
    Program p(8);
    p.append(inst1M(Opcode::HD_M, 0));
    p.append(inst1M(Opcode::HD_M, 1));
    SimOptions one;
    one.arch.sam = SamKind::Point;
    one.arch.banks = 1;
    SimOptions two = one;
    two.arch.banks = 2;
    EXPECT_LT(simulate(p, two).execBeats, simulate(p, one).execBeats);
}

TEST(Simulator, MagicBoundExecutionWithOneFactory)
{
    // 10 T gadgets on one qubit: 2 warm states + 8 produced every 15
    // beats make the MSF the bottleneck.
    Circuit c(1);
    for (int i = 0; i < 10; ++i)
        c.t(0);
    const Program p = translate(c);
    const SimResult r = simulateConventional(p);
    EXPECT_GE(r.execBeats, 8 * 15);
    EXPECT_EQ(r.magicConsumed, 10);
    EXPECT_GT(r.magicStallBeats, 0);
}

TEST(Simulator, MoreFactoriesRelieveMagicBound)
{
    Circuit c(4);
    for (int i = 0; i < 20; ++i)
        c.t(i % 4);
    const Program p = translate(c);
    const auto beats1 = simulateConventional(p).execBeats;
    const auto beats2 =
        simulateConventional(p, {.arch = {.factories = 2}}).execBeats;
    const auto beats4 =
        simulateConventional(p, {.arch = {.factories = 4}}).execBeats;
    EXPECT_LE(beats2, beats1);
    EXPECT_LE(beats4, beats2);
    EXPECT_LT(beats4, beats1); // strictly better end to end
}

TEST(Simulator, InstantMagicRemovesStalls)
{
    Circuit c(1);
    for (int i = 0; i < 10; ++i)
        c.t(0);
    const Program p = translate(c);
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.instantMagic = true;
    const SimResult r = simulate(p, opts);
    EXPECT_EQ(r.magicStallBeats, 0);
    EXPECT_LT(r.execBeats, 8 * 15);
}

TEST(Simulator, SkBarrierOrdersNextInstruction)
{
    // MZ writes v at t=0; SK waits for it and gates the next op.
    Program p(2);
    const auto v = p.newValue();
    p.append(inst1M(Opcode::MZ_M, 0, v));
    Instruction sk;
    sk.op = Opcode::SK;
    sk.v0 = v;
    p.append(sk);
    p.append(inst1M(Opcode::HD_M, 1));
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.lat.skWait = 7;
    const SimResult r = simulate(p, opts);
    // H starts after SK's 7-beat decoder wait.
    EXPECT_EQ(r.execBeats, 7 + 3);
}

TEST(Simulator, BarrierOnlyAppliesOnce)
{
    Program p(2);
    const auto v = p.newValue();
    p.append(inst1M(Opcode::MZ_M, 0, v));
    Instruction sk;
    sk.op = Opcode::SK;
    sk.v0 = v;
    p.append(sk);
    p.append(inst1M(Opcode::PH_M, 0)); // gated by SK
    p.append(inst1M(Opcode::HD_M, 1)); // NOT gated: runs from t=0
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.lat.skWait = 10;
    const SimResult r = simulate(p, opts);
    // exec = max(10+2 for gated PH, 3 for free H) = 12.
    EXPECT_EQ(r.execBeats, 12);
}

TEST(Simulator, ValueReadBeforeItsWriteSeesZero)
{
    // v0 is ready at beat 9 and done once SK v0 reads it; v1 is never
    // written, so SK v1 must read 0 and leave no barrier. Reading v0's
    // 9 (as a lane would, were v1 handed v0's value slot) would delay
    // both HD.M m0 to 15.
    const Program p = assemble("; lsqca program: 1 variables\n"
                               "HD.C c0\n"
                               "HD.C c0\n"
                               "HD.C c0\n"
                               "MZ.C c0 -> v0\n"
                               "SK v0\n"
                               "HD.C c1\n"
                               "SK v1\n"
                               "HD.M m0\n"
                               "HD.M m0\n");
    EXPECT_EQ(simulateConventional(p).execBeats, 12);
}

TEST(Simulator, CxBetweenConventionalQubitsIsTwoBeats)
{
    Program p(2);
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 0;
    cx.m1 = 1;
    p.append(cx);
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 2);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const Circuit lowered = lowerToCliffordT(makeAdder(6));
    const Program p = translate(lowered);
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    const SimResult a = simulate(p, opts);
    const SimResult b = simulate(p, opts);
    EXPECT_EQ(a.execBeats, b.execBeats);
    EXPECT_EQ(a.memoryBeats, b.memoryBeats);
    EXPECT_EQ(a.magicConsumed, b.magicConsumed);
}

TEST(Simulator, TruncationLimitsWork)
{
    Circuit c(4);
    for (int i = 0; i < 40; ++i)
        c.h(i % 4);
    const Program p = translate(c);
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.maxInstructions = 10;
    const SimResult r = simulate(p, opts);
    EXPECT_EQ(r.instructionsSimulated, 10);
    EXPECT_LT(r.execBeats, simulate(p, SimOptions{opts.arch}).execBeats);
}

TEST(Simulator, HybridFractionOneMatchesConventionalTime)
{
    const Circuit lowered = lowerToCliffordT(makeMultiplier({4, 3}));
    const Program p = translate(lowered);
    SimOptions hybrid;
    hybrid.arch.sam = SamKind::Line;
    hybrid.arch.hybridFraction = 1.0;
    const SimResult h = simulate(p, hybrid);
    const SimResult c = simulateConventional(p);
    EXPECT_EQ(h.execBeats, c.execBeats);
    EXPECT_DOUBLE_EQ(h.density(), 0.5);
}

TEST(Simulator, HybridKeepsHotQubitsFast)
{
    // A program hammering one qubit: hybrid f small should place that
    // qubit conventionally and beat the pure-SAM machine.
    Circuit c(64);
    for (int i = 0; i < 30; ++i)
        c.h(0);
    for (int i = 1; i < 8; ++i)
        c.h(i);
    const Program p = translate(c);
    SimOptions pure;
    pure.arch.sam = SamKind::Point;
    SimOptions hybrid = pure;
    hybrid.arch.hybridFraction = 0.05; // ~3 hottest qubits
    EXPECT_LT(simulate(p, hybrid).execBeats,
              simulate(p, pure).execBeats);
}

TEST(Simulator, TraceRecordsMemoryReferences)
{
    Program p(2);
    p.append(inst1M(Opcode::HD_M, 0));
    p.append(inst1M(Opcode::PH_M, 1));
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 0;
    cx.m1 = 1;
    p.append(cx);
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    EXPECT_EQ(traceOf(p, opts).trace().size(), 4u); // 1 + 1 + 2 operands
}

TEST(Simulator, OpcodeBreakdownSumsToProgram)
{
    const Circuit lowered = lowerToCliffordT(makeAdder(5));
    const Program p = translate(lowered);
    SimOptions opts;
    opts.arch.sam = SamKind::Line;
    opts.recordBreakdown = true;
    const SimResult r = simulate(p, opts);
    std::int64_t total = 0;
    for (const OpcodeSplit &row : r.breakdown)
        total += row.count;
    EXPECT_EQ(total, p.size());
    EXPECT_EQ(r.instructionsSimulated, p.size());
}

TEST(Simulator, LoadStoreRoundTripOnPointSam)
{
    TranslateOptions topts;
    topts.inMemoryOps = false;
    Circuit c(9);
    c.h(4);
    const Program p = translate(c, topts);
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.arch.inMemoryOps = false;
    opts.recordBreakdown = true;
    const SimResult r = simulate(p, opts);
    // LD + HD.C(3) + ST, with nonzero memory traffic.
    EXPECT_GT(r.memoryBeats, 0);
    EXPECT_GT(r.execBeats, 3);
    EXPECT_EQ(rowOf(r, Opcode::LD).count, 1);
    EXPECT_EQ(rowOf(r, Opcode::ST).count, 1);
}

TEST(Simulator, RowParallelUnitariesShareAWindow)
{
    // Five H gates on one line-SAM row: with row-parallel ops they all
    // complete in one 3-beat window; serialized otherwise.
    Program p(25); // 5x5 line bank
    for (std::int32_t q = 0; q < 5; ++q) // row 0
        p.append(inst1M(Opcode::HD_M, q));
    SimOptions batched;
    batched.arch.sam = SamKind::Line;
    const auto fast = simulate(p, batched).execBeats;
    SimOptions serial = batched;
    serial.arch.rowParallelOps = false;
    const auto slow = simulate(p, serial).execBeats;
    EXPECT_EQ(fast, 3);
    EXPECT_EQ(slow, 15);
}

TEST(Simulator, RowParallelRequiresSameRowAndOpcode)
{
    Program p(25);
    p.append(inst1M(Opcode::HD_M, 0));  // row 0
    p.append(inst1M(Opcode::PH_M, 1));  // different opcode: no join
    p.append(inst1M(Opcode::HD_M, 25 - 1)); // row 4: no join
    SimOptions opts;
    opts.arch.sam = SamKind::Line;
    const auto beats = simulate(p, opts).execBeats;
    EXPECT_GT(beats, 3); // the follow-ups serialized
}

TEST(Simulator, RowParallelOffOnPointSam)
{
    Program p(25);
    p.append(inst1M(Opcode::HD_M, 0));
    p.append(inst1M(Opcode::HD_M, 1));
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    // Point SAM has a single scan cell: always serialized.
    EXPECT_GE(simulate(p, opts).execBeats, 6);
}

TEST(Simulator, DensityReportedFromFloorplan)
{
    Program p(400);
    p.append(inst1M(Opcode::HD_M, 0));
    SimOptions opts;
    opts.arch.sam = SamKind::Line;
    const SimResult r = simulate(p, opts);
    EXPECT_NEAR(r.density(), 400.0 / 462.0, 1e-12);
}

TEST(Simulator, LoadStoreOnConventionalVariableIsFree)
{
    // Hybrid machines may see LD/ST touching a conventional-region
    // variable (region-agnostic object code): zero cost, no scan use.
    Program p(4);
    Instruction ld;
    ld.op = Opcode::LD;
    ld.m0 = 0;
    ld.c0 = 0;
    p.append(ld);
    Instruction st;
    st.op = Opcode::ST;
    st.m0 = 0;
    st.c0 = 0;
    p.append(st);
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.arch.hybridFraction = 1.0; // everything conventional
    const SimResult r = simulate(p, opts);
    EXPECT_EQ(r.execBeats, 0);
    EXPECT_EQ(r.memoryBeats, 0);
}

TEST(Simulator, CrSlotInstructionsHonorTableLatencies)
{
    Program p(1);
    Instruction pp;
    pp.op = Opcode::PP_C;
    pp.c0 = 0;
    p.append(pp);
    Instruction hd;
    hd.op = Opcode::HD_C;
    hd.c0 = 0;
    p.append(hd);
    Instruction ph;
    ph.op = Opcode::PH_C;
    ph.c0 = 0;
    p.append(ph);
    const auto v = p.newValue();
    Instruction mx;
    mx.op = Opcode::MX_C;
    mx.c0 = 0;
    mx.v0 = v;
    p.append(mx);
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 0 + 3 + 2 + 0);
}

TEST(Simulator, TwoSlotSurgerySerializesOnBothSlots)
{
    Program p(1);
    const auto v0 = p.newValue();
    const auto v1 = p.newValue();
    Instruction hd;
    hd.op = Opcode::HD_C;
    hd.c0 = 1;
    p.append(hd); // slot 1 busy until t=3
    Instruction zz;
    zz.op = Opcode::MZZ_C;
    zz.c0 = 0;
    zz.c1 = 1;
    zz.v0 = v0;
    p.append(zz); // waits for slot 1
    Instruction mz;
    mz.op = Opcode::MZ_C;
    mz.c0 = 0;
    mz.v0 = v1;
    p.append(mz);
    const SimResult r = simulateConventional(p);
    EXPECT_EQ(r.execBeats, 3 + 1);
}

TEST(Simulator, HybridRegionPrefersHottestVariables)
{
    // Variable 3 is touched constantly; with a tiny hybrid fraction it
    // must be the one placed conventionally (its ops take exactly the
    // fixed latencies).
    Program p(40);
    for (int i = 0; i < 10; ++i)
        p.append(inst1M(Opcode::PH_M, 3));
    p.append(inst1M(Opcode::PH_M, 7));
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.arch.hybridFraction = 0.025; // exactly one variable
    opts.recordBreakdown = true;
    const SimResult r = simulate(p, opts);
    // 10 sequential 2-beat phases on the hot conventional qubit = 20;
    // the single SAM op overlaps within that window.
    EXPECT_EQ(rowOf(r, Opcode::PH_M).beats - r.memoryBeats, 11 * 2);
}

TEST(Simulator, MotionSamplesRecordedWithTrace)
{
    Program p(16);
    p.append(inst1M(Opcode::HD_M, 0));
    p.append(inst1M(Opcode::HD_M, 9));
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    const collectors::TraceCollector trace = traceOf(p, opts);
    EXPECT_FALSE(trace.motionSamples().empty());
    for (const auto sample : trace.motionSamples())
        EXPECT_GT(sample, 0);
    // A machine that moves nothing records no sample.
    opts.arch.sam = SamKind::Conventional;
    EXPECT_TRUE(traceOf(p, opts).motionSamples().empty());
}

TEST(Simulator, MagicWaitConcealsScanMotion)
{
    // One T-gadget on a distant qubit with a COLD magic buffer: the
    // in-memory positioning (seek+pick) must overlap the 15-beat
    // production wait, so the gadget ends at max(wait, motion)+surgery,
    // not wait+motion+surgery.
    Circuit c(64);
    c.t(55); // far from the port in an 8x8-ish bank
    const Program p = translate(c);
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.arch.warmBuffer = false; // first magic ready at beat 15
    const SimResult r = simulate(p, opts);
    // Gadget tail: MZZ surgery (1) + conditional PH (2). The motion is
    // concealed inside the 15-beat magic wait entirely (motion < 15
    // here would not hold for q55; allow the general bound instead):
    // end <= max(15, motion) + 1 + transfer + 2.
    std::int64_t motion = 0;
    const collectors::TraceCollector trace = traceOf(p, opts);
    for (const auto sample : trace.motionSamples())
        motion = std::max(motion, sample);
    EXPECT_LE(r.execBeats,
              std::max<std::int64_t>(15 + 1, motion) + 1 + 2 + 1);
    EXPECT_LT(r.execBeats, 15 + motion + 3); // strictly overlapped
}

TEST(Simulator, CrossBankCxFreesBothScans)
{
    // CX between banks: both banks position concurrently; a later op on
    // a third qubit in bank 0 must not wait for the full CX window on
    // point SAM (the scan frees after positioning).
    Program p(32);
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 0; // bank 0
    cx.m1 = 1; // bank 1
    p.append(cx);
    p.append(inst1M(Opcode::HD_M, 2)); // bank 0 again
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.arch.banks = 2;
    const SimResult r = simulate(p, opts);
    SimOptions one_bank = opts;
    one_bank.arch.banks = 1;
    EXPECT_LE(r.execBeats, simulate(p, one_bank).execBeats);
}

TEST(Simulator, ValidatesConfig)
{
    Program p(4);
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.arch.banks = 3; // invalid for point SAM
    EXPECT_THROW(simulate(p, opts), ConfigError);
}

} // namespace
} // namespace lsqca
