/**
 * @file
 * Lockstep lanes (simulateLanes): jobs that differ only in magic-state
 * supply share one bank walk, and every lane's result equals a solo
 * simulate() bit for bit, including a lane whose row-parallel window
 * vote loses to the first lane's and is re-simulated alone.
 *
 * The *Differential* suites draw seeded random programs, point- and
 * line-SAM machines (banks, hybrid fraction, in-memory ops, locality
 * store, direct surgery, row-parallel ops, placement, instruction
 * prefix) and 2-6 lanes over each that differ in magic-state supply
 * (factories, buffer capacity, warm start, instant magic, factory
 * period, transfer latency). They run 8 seeds; the fuzz-labelled ctest
 * entry re-runs them with LSQCA_FUZZ_SEEDS=64 (see CMakeLists.txt and
 * the CI `ctest -L fuzz` step).
 */

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "../circuit/random_macro_circuit.h"
#include "circuit/lowering.h"
#include "common/error.h"
#include "common/rng.h"
#include "isa/assembler.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.execBeats, b.execBeats);
    EXPECT_EQ(a.instructionsSimulated, b.instructionsSimulated);
    EXPECT_EQ(a.countedInstructions, b.countedInstructions);
    EXPECT_EQ(a.cpi, b.cpi); // bitwise: same division, same inputs
    EXPECT_EQ(a.magicConsumed, b.magicConsumed);
    EXPECT_EQ(a.magicStallBeats, b.magicStallBeats);
    EXPECT_EQ(a.memoryBeats, b.memoryBeats);
    EXPECT_EQ(a.opcodeCount, b.opcodeCount);
    EXPECT_EQ(a.opcodeBeats, b.opcodeBeats);
    EXPECT_EQ(a.density(), b.density());
}

/** @p base at 1, 2 and 4 factories, plus a cold, slow, instant mix. */
std::vector<SimOptions>
magicLanes(const SimOptions &base)
{
    std::vector<SimOptions> lanes;
    for (const std::int32_t factories : {1, 2, 4}) {
        SimOptions lane = base;
        lane.arch.factories = factories;
        lanes.push_back(lane);
    }
    SimOptions cold = base;
    cold.arch.warmBuffer = false;
    cold.arch.bufferCap = 1;
    cold.arch.lat.msfPeriod = 40;
    cold.arch.lat.magicTransfer = 3;
    lanes.push_back(cold);
    SimOptions instant = base;
    instant.arch.instantMagic = true;
    lanes.push_back(instant);
    return lanes;
}

/** The SAM machines of the paper sweeps plus the ablation toggles. */
std::vector<SimOptions>
machines()
{
    std::vector<SimOptions> out;
    const auto add = [&](SamKind sam, std::int32_t banks, double hybrid) {
        SimOptions o;
        o.arch.sam = sam;
        o.arch.banks = banks;
        o.arch.hybridFraction = hybrid;
        out.push_back(o);
        return &out.back();
    };
    add(SamKind::Point, 1, 0.0);
    add(SamKind::Point, 2, 0.0);
    add(SamKind::Line, 1, 0.0);
    add(SamKind::Line, 4, 0.0);
    add(SamKind::Line, 2, 0.25);
    add(SamKind::Point, 1, 0.0)->arch.inMemoryOps = false;
    add(SamKind::Line, 1, 0.0)->arch.inMemoryOps = false;
    add(SamKind::Line, 1, 0.0)->arch.localityStore = false;
    add(SamKind::Line, 1, 0.0)->arch.directSurgery = true;
    add(SamKind::Line, 2, 0.0)->arch.placement =
        PlacementPolicy::Interleaved;
    add(SamKind::Line, 1, 0.0)->maxInstructions = 500;
    return out;
}

TEST(SimulateLanes, EveryLaneEqualsSoloSimulate)
{
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    for (const SimOptions &machine : machines()) {
        SCOPED_TRACE(machine.arch.label());
        const std::vector<SimOptions> lanes = magicLanes(machine);
        const LaneResults run = simulateLanes(program, lanes);
        ASSERT_EQ(run.results.size(), lanes.size());
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            SCOPED_TRACE("lane " + std::to_string(k));
            expectIdentical(run.results[k], simulate(program, lanes[k]));
        }
    }
}

TEST(SimulateLanes, OneLaneIsSimulate)
{
    const Program program = translate(lowerToCliffordT(makeGhz(6)));
    SimOptions opts;
    opts.arch.sam = SamKind::Line;
    opts.recordBreakdown = true; // one lane may be anything
    const LaneResults run = simulateLanes(program, {opts});
    ASSERT_EQ(run.results.size(), 1u);
    expectIdentical(run.results[0], simulate(program, opts));
    EXPECT_EQ(run.results[0].breakdown, simulate(program, opts).breakdown);
    EXPECT_EQ(run.fallbacks, 0);
    EXPECT_TRUE(simulateLanes(program, {}).results.empty());
}

TEST(SimulateLanes, SharesBankWalkOnlyAcrossMagicSupply)
{
    SimOptions base;
    base.arch.sam = SamKind::Line;
    for (const SimOptions &lane : magicLanes(base))
        EXPECT_TRUE(sharesBankWalk(base, lane));

    std::vector<SimOptions> apart(5, base);
    apart[0].arch.hybridFraction = 0.25;
    apart[1].maxInstructions = 100;
    apart[2].arch.placement = PlacementPolicy::Interleaved;
    apart[3].arch.rowParallelOps = false;
    apart[4].arch.lat.move = 2;
    for (const SimOptions &other : apart)
        EXPECT_FALSE(sharesBankWalk(base, other));

    // A conventional machine has no banks, so its lanes would share
    // nothing.
    SimOptions conventional = base;
    conventional.arch.sam = SamKind::Conventional;
    EXPECT_FALSE(sharesBankWalk(conventional, conventional));
    SimOptions twoFactories = conventional;
    twoFactories.arch.factories = 2;
    EXPECT_FALSE(sharesBankWalk(conventional, twoFactories));

    SimObserver observer;
    std::vector<SimOptions> alone(4, base);
    alone[0].observers.push_back(&observer);
    alone[1].recordTrace = true;
    alone[2].recordBreakdown = true;
    alone[3].estimator.mode = estimate::EstimatorMode::Sampled;
    for (const SimOptions &other : alone) {
        EXPECT_FALSE(sharesBankWalk(base, other));
        EXPECT_FALSE(sharesBankWalk(other, other));
    }
}

TEST(SimulateLanes, RejectsLanesThatDoNotShareAWalk)
{
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    SimOptions a;
    a.arch.sam = SamKind::Point;
    SimOptions b = a;
    b.arch.banks = 2;
    EXPECT_THROW(simulateLanes(program, {a, b}), ConfigError);
    SimOptions traced = a;
    traced.recordTrace = true;
    EXPECT_THROW(simulateLanes(program, {a, traced}), ConfigError);
    SimOptions conventional;
    conventional.arch.sam = SamKind::Conventional;
    SimOptions twoFactories = conventional;
    twoFactories.arch.factories = 2;
    EXPECT_THROW(simulateLanes(program, {conventional, twoFactories}),
                 ConfigError);
}

TEST(SimulateLanes, LostWindowVoteFallsBackToASoloRun)
{
    // On a 2x2 line bank m0 and m1 share row 0. With instant magic the
    // SK barrier clears at beat 0, so HD.M m1 joins the window HD.M m0
    // opened (3 beats). With a cold buffer the PM waits 200 beats, the
    // barrier holds MZ.M m1 back, and HD.M m1 opens its own window
    // (204 beats). The window vote disagrees whichever lane is first.
    const Program program = assemble("; lsqca program: 4 variables\n"
                                     "PM c0\n"
                                     "MX.C c0 -> v0\n"
                                     "SK v0\n"
                                     "MZ.M m1 -> v1\n"
                                     "HD.M m0\n"
                                     "HD.M m1\n");
    SimOptions instant;
    instant.arch.sam = SamKind::Line;
    instant.arch.instantMagic = true;
    SimOptions cold = instant;
    cold.arch.instantMagic = false;
    cold.arch.warmBuffer = false;
    cold.arch.lat.msfPeriod = 200;
    ASSERT_TRUE(sharesBankWalk(instant, cold));
    ASSERT_EQ(simulate(program, instant).execBeats, 3);
    ASSERT_EQ(simulate(program, cold).execBeats, 204);

    for (const std::vector<SimOptions> &lanes :
         {std::vector<SimOptions>{instant, cold},
          std::vector<SimOptions>{cold, instant}}) {
        const LaneResults run = simulateLanes(program, lanes);
        EXPECT_EQ(run.fallbacks, 1);
        ASSERT_EQ(run.results.size(), 2u);
        for (std::size_t k = 0; k < lanes.size(); ++k)
            expectIdentical(run.results[k], simulate(program, lanes[k]));
    }
}

TEST(SimulateLanes, ValueReadBeforeItsWriteSeesZero)
{
    // Simulator.ValueReadBeforeItsWriteSeesZero on a SAM machine, where
    // lanes keep value ready times in value slots: v1, read before any
    // write, must not be handed the slot v0 (ready at beat 9) freed.
    const Program program = assemble("; lsqca program: 1 variables\n"
                                     "HD.C c0\n"
                                     "HD.C c0\n"
                                     "HD.C c0\n"
                                     "MZ.C c0 -> v0\n"
                                     "SK v0\n"
                                     "HD.C c1\n"
                                     "SK v1\n"
                                     "HD.M m0\n"
                                     "HD.M m0\n");
    SimOptions one;
    one.arch.sam = SamKind::Point;
    SimOptions two = one;
    two.arch.factories = 2;
    const SimResult solo = simulate(program, one);
    EXPECT_EQ(solo.execBeats, 12); // both HD.M m0 done by then
    const LaneResults run = simulateLanes(program, {one, two});
    ASSERT_EQ(run.results.size(), 2u);
    expectIdentical(run.results[0], solo);
    expectIdentical(run.results[1], simulate(program, two));
}

/** Records each instruction's start and end beat, in program order. */
class InstructionSpans final : public SimObserver
{
  public:
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;

    void
    onInstruction(const InstructionEvent &event) override
    {
        spans.push_back({event.start, event.end});
    }
};

Instruction
make(Opcode op, std::int32_t c0 = -1, std::int32_t m0 = -1,
     std::int32_t v0 = -1)
{
    Instruction inst;
    inst.op = op;
    inst.c0 = c0;
    inst.m0 = m0;
    inst.v0 = v0;
    return inst;
}

TEST(SimulateLanes, EveryValueOperandButSkIsWrittenBeforeItIsRead)
{
    // Lanes keep value ready times in the slots Program::prefixExtent()
    // hands out (ValueSlots, isa/program.h), on the rule that SK is the
    // only opcode that reads its value and every other opcode naming
    // one writes it. Pin the machine to that rule, opcode by opcode:
    // v0 is written at beat 3 and read, so its slot is free again; the
    // opcode under test names v1 later, and SK v1 must wait exactly
    // for it, in a solo run and in lanes alike. A new opcode that
    // reads a value fails here until the slot rule learns about it.
    for (int k = 0; k < kNumOpcodes; ++k) {
        const auto op = static_cast<Opcode>(k);
        const OpcodeInfo &info = opcodeInfo(op);
        if (info.numVal == 0 || op == Opcode::SK)
            continue;
        SCOPED_TRACE(info.mnemonic);
        Program program(2);
        program.newValue();
        program.newValue();
        // Busy the writer's operands past beat 3.
        for (int rep = 0; rep < 2; ++rep) {
            if (info.numReg >= 1)
                program.append(make(Opcode::HD_C, 0));
            if (info.numMem >= 1)
                program.append(make(Opcode::HD_M, -1, 0));
        }
        program.append(make(Opcode::HD_C, 2));
        program.append(make(Opcode::MZ_C, 2, -1, 0)); // v0 at beat 3
        program.append(make(Opcode::SK, -1, -1, 0));
        program.append(make(Opcode::PZ_C, 4)); // takes SK v0's barrier
        Instruction writer;
        writer.op = op;
        writer.c0 = info.numReg >= 1 ? 0 : -1;
        writer.c1 = info.numReg >= 2 ? 1 : -1;
        writer.m0 = info.numMem >= 1 ? 0 : -1;
        writer.v0 = 1;
        const auto w = static_cast<std::size_t>(program.size());
        program.append(writer);
        program.append(make(Opcode::SK, -1, -1, 1));
        program.append(make(Opcode::HD_C, 3)); // waits for SK v1

        SimOptions plain;
        plain.arch.sam = SamKind::Point;
        InstructionSpans ran;
        SimOptions observed = plain;
        observed.observers = {&ran};
        const SimResult solo = simulate(program, observed);
        ASSERT_EQ(ran.spans.size(),
                  static_cast<std::size_t>(program.size()));
        const std::int64_t written = ran.spans[w].second;
        EXPECT_GT(written, 3);
        EXPECT_EQ(ran.spans[w + 1].first, written);
        EXPECT_EQ(ran.spans[w + 2].first, written);
        // The last instruction to finish, so a lane whose SK v1 read
        // anything else would end at another beat.
        ASSERT_EQ(solo.execBeats, written + 3);

        SimOptions twoFactories = plain;
        twoFactories.arch.factories = 2;
        const LaneResults run =
            simulateLanes(program, {plain, twoFactories});
        ASSERT_EQ(run.results.size(), 2u);
        expectIdentical(run.results[0], solo);
        expectIdentical(run.results[1], simulate(program, twoFactories));
    }
}

/** Seeds per suite (LSQCA_FUZZ_SEEDS overrides 8). */
int
fuzzSeedCount()
{
    if (const char *env = std::getenv("LSQCA_FUZZ_SEEDS")) {
        const int n = std::atoi(env);
        if (n >= 1 && n <= 65536)
            return n;
    }
    return 8;
}

/** A random point- or line-SAM machine, with @p program's prefix. */
SimOptions
randomMachine(Rng &rng, const Program &program)
{
    SimOptions o;
    o.arch.sam = rng.chance(0.5) ? SamKind::Point : SamKind::Line;
    o.arch.banks = static_cast<std::int32_t>(
        rng.between(1, o.arch.sam == SamKind::Point ? 2 : 4));
    static constexpr double kHybrid[] = {0.0, 0.0, 0.1, 0.25, 0.5};
    o.arch.hybridFraction = kHybrid[rng.below(5)];
    o.arch.inMemoryOps = rng.chance(0.8);
    o.arch.localityStore = rng.chance(0.8);
    o.arch.directSurgery = rng.chance(0.3);
    o.arch.rowParallelOps = rng.chance(0.7);
    o.arch.placement = rng.chance(0.5) ? PlacementPolicy::RowMajor
                                       : PlacementPolicy::Interleaved;
    if (rng.chance(0.3) && program.size() > 1)
        o.maxInstructions = rng.between(1, program.size() - 1);
    return o;
}

/** 2-6 lanes of @p base, each with a random magic-state supply. */
std::vector<SimOptions>
randomLanes(Rng &rng, const SimOptions &base)
{
    std::vector<SimOptions> lanes(
        static_cast<std::size_t>(rng.between(2, 6)), base);
    for (SimOptions &lane : lanes) {
        ArchConfig &arch = lane.arch;
        arch.factories = static_cast<std::int32_t>(rng.between(1, 4));
        arch.bufferCap = rng.chance(0.5)
                             ? -1
                             : static_cast<std::int32_t>(
                                   rng.between(1, 8));
        arch.warmBuffer = rng.chance(0.7);
        arch.instantMagic = rng.chance(0.15);
        arch.lat.msfPeriod = static_cast<std::int32_t>(rng.between(1, 40));
        arch.lat.magicTransfer =
            static_cast<std::int32_t>(rng.between(0, 3));
    }
    return lanes;
}

/** Run @p lanes as one group and compare each lane with simulate(). */
void
expectLanesMatchSolo(const Program &program,
                     const std::vector<SimOptions> &lanes)
{
    const SimOptions &base = lanes.front();
    SCOPED_TRACE(base.arch.label() + " prefix " +
                 std::to_string(base.maxInstructions) + " lanes " +
                 std::to_string(lanes.size()));
    ASSERT_TRUE(sharesBankWalk(base, lanes.back()));
    const LaneResults run = simulateLanes(program, lanes);
    ASSERT_EQ(run.results.size(), lanes.size());
    // Only the line-SAM row-parallel window reads timing.
    if (base.arch.sam != SamKind::Line || !base.arch.rowParallelOps ||
        !base.arch.inMemoryOps) {
        EXPECT_EQ(run.fallbacks, 0);
    }
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        expectIdentical(run.results[k], simulate(program, lanes[k]));
    }
}

class RandomProgramLanesDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomProgramLanesDifferential, EveryLaneEqualsSoloSimulate)
{
    Rng rng(0x5eed1a9e5ULL * (static_cast<std::uint64_t>(GetParam()) + 1));
    TranslateOptions translation;
    translation.inMemoryOps = rng.chance(0.8);
    translation.crSlots = static_cast<std::int32_t>(rng.between(2, 3));
    const std::uint64_t circuitSeed = rng();
    const std::int64_t gates = rng.between(50, 400);
    const Program program = lowerAndTranslate(
        randomMacroCircuit(circuitSeed, gates, true), translation);
    const SimOptions machine = randomMachine(rng, program);
    expectLanesMatchSolo(program, randomLanes(rng, machine));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramLanesDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

/** Small instances of the paper's adder, SELECT and multiplier. */
const std::vector<Program> &
benchmarkPrograms()
{
    static const std::vector<Program> programs = [] {
        SelectParams select;
        select.width = 5;
        MultiplierParams multiplier;
        multiplier.widthA = 5;
        multiplier.widthB = 4;
        return std::vector<Program>{
            lowerAndTranslate(makeAdder(8)),
            lowerAndTranslate(makeSelect(select)),
            lowerAndTranslate(makeMultiplier(multiplier))};
    }();
    return programs;
}

class BenchmarkLanesDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(BenchmarkLanesDifferential, EveryLaneEqualsSoloSimulate)
{
    Rng rng(0xbe7c4a11ULL * (static_cast<std::uint64_t>(GetParam()) + 1));
    for (const Program &program : benchmarkPrograms()) {
        const SimOptions machine = randomMachine(rng, program);
        expectLanesMatchSolo(program, randomLanes(rng, machine));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchmarkLanesDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

} // namespace
} // namespace lsqca
