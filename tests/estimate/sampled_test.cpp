/**
 * @file
 * Sampled-estimator correctness (docs/SAMPLING.md), pinned two ways:
 *
 *  * exactness contracts — period=1 coverage and streams shorter than
 *    the effective-period clamp must reproduce the exact simulation
 *    bit for bit (estimated == false, identical SimResult);
 *  * a seeded differential harness — functional fast-forward must
 *    leave the machine in exactly the state detailed execution
 *    reaches, checked via Machine::functionalDigest() at random
 *    checkpoints over real translated programs.
 *
 * The harness seed count follows LSQCA_SAMPLE_SEEDS (default 8; the
 * `ctest -L sample` entry re-runs it with 32, see CMakeLists.txt).
 * Line SAM runs with row_parallel_ops off: the fast-forward path
 * always commits the align a row-parallel batch may elide (the one
 * documented divergence, covered statistically by the sampling CI
 * gate instead).
 */

#include "estimate/sampled.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "circuit/lowering.h"
#include "common/error.h"
#include "common/rng.h"
#include "estimate/options.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

using estimate::EstimatorMode;
using estimate::EstimatorOptions;

int
sampleSeedCount()
{
    if (const char *env = std::getenv("LSQCA_SAMPLE_SEEDS")) {
        const int n = std::atoi(env);
        if (n >= 1 && n <= 65536)
            return n;
    }
    return 8;
}

/** Distinct, well-mixed 64-bit seed for differential round @p index. */
std::uint64_t
differentialSeed(int index)
{
    return 0x9e3779b97f4a7c15ULL *
           (static_cast<std::uint64_t>(index) + 1);
}

/** Small real programs shared by every test in this file. */
const Program &
pooledProgram(int which)
{
    // 603 / 48 / 4735 instructions respectively: a mid-size
    // arithmetic stream, a trivial transversal chain, and a stream
    // long enough for the estimator to genuinely sample.
    static const Program adder =
        translate(lowerToCliffordT(makeAdder(16)));
    static const Program ghz =
        translate(lowerToCliffordT(makeGhz(48)));
    static const Program select =
        translate(lowerToCliffordT(makeSelect({.width = 4})));
    switch (which % 3) {
      case 0: return adder;
      case 1: return ghz;
      default: return select;
    }
}

EstimatorOptions
sampledOptions(std::int64_t unit, std::int64_t warm, std::int64_t period)
{
    EstimatorOptions est;
    est.mode = EstimatorMode::Sampled;
    est.unitInstrs = unit;
    est.warmupInstrs = warm;
    est.period = period;
    return est;
}

/** Every machine-visible field two exact-coverage runs must share. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.execBeats, b.execBeats);
    EXPECT_EQ(a.instructionsSimulated, b.instructionsSimulated);
    EXPECT_EQ(a.countedInstructions, b.countedInstructions);
    EXPECT_EQ(a.cpi, b.cpi); // bit-for-bit, not just close
    EXPECT_EQ(a.magicConsumed, b.magicConsumed);
    EXPECT_EQ(a.magicStallBeats, b.magicStallBeats);
    EXPECT_EQ(a.memoryBeats, b.memoryBeats);
    EXPECT_EQ(a.floorplan.density(), b.floorplan.density());
}

TEST(EstimatorOptions, EffectivePeriodClampsShortStreams)
{
    EstimatorOptions est = sampledOptions(200, 200, 40);
    // Long streams keep the configured period.
    EXPECT_EQ(est.effectivePeriod(320), 40);
    EXPECT_EQ(est.effectivePeriod(100000), 40);
    // Mid-size streams shrink it so >= kMinMeasuredUnits units are
    // measured.
    EXPECT_EQ(est.effectivePeriod(80), 10);
    EXPECT_EQ(est.effectivePeriod(16), 2);
    // Too short for a sample at all: whole-stream coverage.
    EXPECT_EQ(est.effectivePeriod(15), 1);
    EXPECT_EQ(est.effectivePeriod(8), 1);
    EXPECT_EQ(est.effectivePeriod(1), 1);
    EXPECT_EQ(est.effectivePeriod(0), 1);
    // period=1 is never inflated.
    est.period = 1;
    EXPECT_EQ(est.effectivePeriod(100000), 1);
}

TEST(EstimatorOptions, ModeNamesRoundTrip)
{
    EXPECT_STREQ(estimate::estimatorModeName(EstimatorMode::Exact),
                 "exact");
    EXPECT_STREQ(estimate::estimatorModeName(EstimatorMode::Sampled),
                 "sampled");
    EXPECT_EQ(estimate::estimatorModeFromName("exact"),
              EstimatorMode::Exact);
    EXPECT_EQ(estimate::estimatorModeFromName("sampled"),
              EstimatorMode::Sampled);
    EXPECT_THROW(estimate::estimatorModeFromName("smarts"),
                 ConfigError);
}

TEST(EstimatorOptions, ValidateRejectsBadSampledParameters)
{
    EstimatorOptions est = sampledOptions(0, 0, 1);
    EXPECT_THROW(est.validate(), ConfigError);
    est = sampledOptions(100, -1, 1);
    EXPECT_THROW(est.validate(), ConfigError);
    est = sampledOptions(100, 0, 0);
    EXPECT_THROW(est.validate(), ConfigError);
    est = sampledOptions(100, 0, 1);
    est.targetCi = -0.1;
    EXPECT_THROW(est.validate(), ConfigError);
    // Exact mode ignores the sampling knobs entirely.
    est = EstimatorOptions{};
    est.unitInstrs = 0;
    EXPECT_NO_THROW(est.validate());
}

/** Period 1 measures every unit: the estimate telescopes to exact. */
void
expectPeriodOneExact(SamKind kind, std::int32_t banks)
{
    const Program &prog = pooledProgram(0);
    SimOptions exact;
    exact.arch.sam = kind;
    exact.arch.banks = banks;
    SimOptions sampled = exact;
    sampled.estimator = sampledOptions(64, 32, 1);

    const SimResult e = simulate(prog, exact);
    const SimResult s = simulate(prog, sampled);
    EXPECT_FALSE(e.estimated);
    EXPECT_FALSE(s.estimated);
    EXPECT_DOUBLE_EQ(s.cpiCi95, 0.0);
    EXPECT_DOUBLE_EQ(s.samplingError, 0.0);
    expectSameResult(e, s);
}

TEST(Sampled, PeriodOneIsBitIdenticalToExactOnPoint)
{
    expectPeriodOneExact(SamKind::Point, 1);
}

TEST(Sampled, PeriodOneIsBitIdenticalToExactOnLine)
{
    expectPeriodOneExact(SamKind::Line, 4);
}

TEST(Sampled, PeriodOneIsBitIdenticalToExactOnConventional)
{
    expectPeriodOneExact(SamKind::Conventional, 1);
}

TEST(Sampled, ShortStreamDegradesToExactCoverage)
{
    // 900 instructions / unit 200 = 5 units < kMinMeasuredUnits: the
    // period clamp turns the run into whole-stream coverage, which
    // must equal the exact truncated run.
    const Program &prog = pooledProgram(2);
    ASSERT_GT(prog.size(), 900);
    SimOptions exact;
    exact.arch.sam = SamKind::Point;
    exact.maxInstructions = 900;
    SimOptions sampled = exact;
    sampled.estimator = sampledOptions(200, 200, 40);

    const SimResult e = simulate(prog, exact);
    const SimResult s = simulate(prog, sampled);
    EXPECT_FALSE(s.estimated);
    EXPECT_EQ(s.sampledUnits, 5);
    EXPECT_EQ(s.ffInstructions, 0);
    expectSameResult(e, s);
}

TEST(Sampled, EstimateLandsNearExactAndAccountsEveryInstruction)
{
    const Program &prog = pooledProgram(2);
    SimOptions exact;
    exact.arch.sam = SamKind::Point;
    SimOptions sampled = exact;
    sampled.estimator = sampledOptions(200, 200, 40);

    const SimResult e = simulate(prog, exact);
    const SimResult s = simulate(prog, sampled);
    ASSERT_TRUE(s.estimated);
    EXPECT_GE(s.sampledUnits, EstimatorOptions::kMinMeasuredUnits);
    EXPECT_GT(s.ffInstructions, 0);
    EXPECT_EQ(s.detailedInstructions + s.ffInstructions,
              s.instructionsSimulated);
    EXPECT_EQ(s.countedInstructions, e.countedInstructions);
    // Magic consumption is functional, never estimated.
    EXPECT_EQ(s.magicConsumed, e.magicConsumed);
    // The estimate carries a real interval and lands near the truth
    // (deterministic simulator: this is a fixed fact, not a flake).
    EXPECT_GT(s.cpiCi95, 0.0);
    EXPECT_GT(s.samplingError, 0.0);
    EXPECT_NEAR(s.cpi, e.cpi, 0.25 * e.cpi);
}

// ---- differential harness: fast-forward vs detailed execution -------------
//
// Two machines over the same program and config: one executes every
// instruction in full detail, the other only replays the functional
// skip-list (Program::streamIndex()->memOps) through fastForwardOne().
// Their functionalDigest() — PM count, per-bank gap/scan position,
// full cell maps — must agree at every checkpoint. A mismatch prints
// the seed and instruction index so the failure replays exactly.

template <SamKind KIND>
void
runFfDifferential(const Program &prog, const SimOptions &opts,
                  std::uint64_t seed, std::int64_t checkpoint)
{
    detail::Machine<KIND, false> det(prog, opts);
    detail::Machine<KIND, false> ff(prog, opts);
    const Instruction *code = prog.instructions().data();
    const auto index = prog.streamIndex();
    const auto &memOps = index->memOps;
    std::size_t cursor = 0;
    const std::int64_t limit = prog.size();
    for (std::int64_t i = 0; i < limit; ++i) {
        det.executeOne(code[i]);
        while (cursor < memOps.size() && memOps[cursor] <= i) {
            ff.fastForwardOne(code[memOps[cursor]]);
            ++cursor;
        }
        if ((i + 1) % checkpoint == 0) {
            ASSERT_EQ(det.functionalDigest(), ff.functionalDigest())
                << "seed " << seed << " after instruction " << i;
        }
    }
    ASSERT_EQ(det.functionalDigest(), ff.functionalDigest())
        << "seed " << seed << " at end of stream";
}

class SampledFfDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(SampledFfDifferential, FunctionalStateMatchesDetailed)
{
    const std::uint64_t seed =
        differentialSeed(GetParam()) ^ 0xf00dfacedULL;
    Rng rng(seed);
    const Program &prog =
        pooledProgram(static_cast<int>(rng.below(3)));
    const std::int64_t checkpoint = rng.between(128, 1024);

    SimOptions opts;
    opts.arch.factories = static_cast<std::int32_t>(rng.between(1, 2));
    opts.arch.localityStore = rng.chance(0.75);
    opts.arch.inMemoryOps = rng.chance(0.75);
    if (rng.chance(0.25))
        opts.arch.hybridFraction = 0.3;

    switch (rng.below(3)) {
      case 0:
        opts.arch.sam = SamKind::Point;
        opts.arch.banks = static_cast<std::int32_t>(rng.between(1, 2));
        runFfDifferential<SamKind::Point>(prog, opts, seed, checkpoint);
        break;
      case 1:
        opts.arch.sam = SamKind::Line;
        opts.arch.banks = static_cast<std::int32_t>(rng.between(1, 4));
        // Option A: ff always commits the align a row-parallel batch
        // may skip, so bit-identity is pinned with batching off.
        opts.arch.rowParallelOps = false;
        runFfDifferential<SamKind::Line>(prog, opts, seed, checkpoint);
        break;
      default:
        opts.arch.sam = SamKind::Conventional;
        opts.arch.banks = 1;
        runFfDifferential<SamKind::Conventional>(prog, opts, seed,
                                                 checkpoint);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampledFfDifferential,
                         ::testing::Range(0, sampleSeedCount()));

/**
 * The estimator's own ff+warm+measure walk, replayed against exact
 * coverage: after a sampled run, rerunning the same config with
 * period 1 must land on the same functional end-state a plain
 * detailed pass reaches. This closes the loop the unit harness above
 * leaves open — resetTimingEpoch() between spans must not perturb
 * functional state either.
 */
class SampledRunDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(SampledRunDifferential, SampledRunPreservesFunctionalAccounting)
{
    const std::uint64_t seed =
        differentialSeed(GetParam()) ^ 0xca55e77eULL;
    Rng rng(seed);
    const Program &prog =
        pooledProgram(static_cast<int>(rng.below(3)));

    SimOptions opts;
    opts.arch.sam = rng.chance(0.5) ? SamKind::Point : SamKind::Line;
    if (opts.arch.sam == SamKind::Line) {
        opts.arch.banks = static_cast<std::int32_t>(rng.between(1, 4));
        opts.arch.rowParallelOps = false;
    }
    opts.estimator = sampledOptions(rng.between(50, 300),
                                    rng.between(0, 300),
                                    rng.between(2, 50));

    const SimResult s = simulate(prog, opts);
    SimOptions exact = opts;
    exact.estimator = EstimatorOptions{};
    const SimResult e = simulate(prog, exact);

    // Functional accounting is exact regardless of sampling.
    EXPECT_EQ(s.instructionsSimulated, e.instructionsSimulated)
        << "seed " << seed;
    EXPECT_EQ(s.countedInstructions, e.countedInstructions)
        << "seed " << seed;
    EXPECT_EQ(s.magicConsumed, e.magicConsumed) << "seed " << seed;
    if (s.estimated) {
        EXPECT_EQ(s.detailedInstructions + s.ffInstructions,
                  s.instructionsSimulated)
            << "seed " << seed;
        EXPECT_GE(s.sampledUnits,
                  EstimatorOptions::kMinMeasuredUnits)
            << "seed " << seed;
    } else {
        expectSameResult(e, s);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampledRunDifferential,
                         ::testing::Range(0, sampleSeedCount()));

} // namespace
} // namespace lsqca
