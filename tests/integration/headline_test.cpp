#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/**
 * Headline regression (paper abstract / Sec. VI-B): on the 400-qubit
 * multiplier with one MSF, line-SAM reaches ~87% memory density at a
 * small execution-time overhead versus the conventional 50% floorplan.
 *
 * A steady-state prefix keeps the test fast; the shift-add loop is
 * periodic, so the overhead ratio converges quickly.
 */
class MultiplierHeadline : public ::testing::Test
{
  protected:
    static constexpr std::int64_t kPrefix = 120'000;

    static const Program &
    program()
    {
        static const Program p =
            translate(lowerToCliffordT(makeMultiplier()));
        return p;
    }
};

TEST_F(MultiplierHeadline, LineSamDensityMatchesPaper)
{
    SimOptions opts;
    opts.arch.sam = SamKind::Line;
    opts.maxInstructions = 1; // density is static
    const SimResult r = simulate(program(), opts);
    EXPECT_GE(r.density(), 0.85);
    EXPECT_LE(r.density(), 0.88);
}

TEST_F(MultiplierHeadline, LineSamOverheadIsSmallAtOneFactory)
{
    SimOptions line;
    line.arch.sam = SamKind::Line;
    line.maxInstructions = kPrefix;
    const auto lsqca = simulate(program(), line).execBeats;
    const auto conv =
        simulateConventional(program(), {.maxInstructions = kPrefix}).execBeats;
    const double overhead =
        static_cast<double>(lsqca) / static_cast<double>(conv);
    EXPECT_GE(overhead, 1.0);
    // Paper: ~1.06 with QASMBench's rotation-heavy multiplier; our
    // Toffoli-based substitution has ~1 CX per T (a harsher concealment
    // test), measuring ~1.4 at one bank (1.0 at four banks) — see
    // EXPERIMENTS.md.
    EXPECT_LE(overhead, 1.45);
}

TEST_F(MultiplierHeadline, InterleavedPlacementRecoversPaperOverhead)
{
    // With bit-sliced ("strategic") data allocation — the paper's
    // future-work knob — our harsher Toffoli-based multiplier reaches
    // the paper's ~1.06 line-SAM headline at the full 87% density.
    SimOptions line;
    line.arch.sam = SamKind::Line;
    line.arch.placement = PlacementPolicy::Interleaved;
    line.maxInstructions = kPrefix;
    const SimResult r = simulate(program(), line);
    const auto conv =
        simulateConventional(program(), {.maxInstructions = kPrefix}).execBeats;
    const double overhead =
        static_cast<double>(r.execBeats) / static_cast<double>(conv);
    EXPECT_GE(r.density(), 0.85);
    EXPECT_LE(overhead, 1.10); // paper: ~1.06
}

TEST_F(MultiplierHeadline, PointSamDensityNearOne)
{
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    opts.maxInstructions = 1;
    const SimResult r = simulate(program(), opts);
    EXPECT_GT(r.density(), 0.98);
}

TEST_F(MultiplierHeadline, MagicBoundAtOneFactory)
{
    // The multiplier demands magic states much faster than one factory
    // produces them (Sec. III-B), so the conventional machine spends
    // most of its time stalled on the MSF -- the slack that hides the
    // LSQCA memory latency.
    const auto conv = simulateConventional(program(), {.maxInstructions = kPrefix});
    EXPECT_GT(conv.magicStallBeats, conv.execBeats / 2);
}

TEST(CliffordHeadline, BvCatGhzSufferWithoutMagicBottleneck)
{
    // Fig. 13: bv/cat/ghz consume no magic states, so nothing conceals
    // the load/store latency and point-SAM overheads are large.
    for (const auto &[name, circ] :
         {std::pair<const char *, Circuit>{"bv",
                                           makeBernsteinVazirani(64)},
          {"cat", makeCat(64)},
          {"ghz", makeGhz(64)}}) {
        const Program p = translate(lowerToCliffordT(circ));
        SimOptions point;
        point.arch.sam = SamKind::Point;
        const auto lsqca = simulate(p, point).execBeats;
        const auto conv = simulateConventional(p).execBeats;
        const double overhead =
            static_cast<double>(lsqca) / static_cast<double>(conv);
        EXPECT_GT(overhead, 3.0) << name;
    }
}

TEST(SelectHeadline, HybridReachesHighDensityWithSmallOverhead)
{
    // Sec. VI-C: placing control+temporal conventionally (f ~ 0.15 for
    // W=11) keeps the hot registers fast while SAM holds the system
    // register; overhead stays small, density far above 0.5.
    const Circuit sel = makeSelect({11, 220});
    const Program p = translate(lowerToCliffordT(sel));
    SimOptions hybrid;
    hybrid.arch.sam = SamKind::Point;
    hybrid.arch.hybridFraction = 0.16;
    const SimResult h = simulate(p, hybrid);
    const auto conv = simulateConventional(p);
    const double overhead = static_cast<double>(h.execBeats) /
                            static_cast<double>(conv.execBeats);
    EXPECT_GT(h.density(), 0.80);
    EXPECT_LT(overhead, 1.35);
}

TEST(SelectHeadline, PureSamSelectOverheadModestAtOneFactory)
{
    const Circuit sel = makeSelect({11, 220});
    const Program p = translate(lowerToCliffordT(sel));
    SimOptions line;
    line.arch.sam = SamKind::Line;
    const auto lsqca = simulate(p, line).execBeats;
    const auto conv = simulateConventional(p).execBeats;
    const double overhead =
        static_cast<double>(lsqca) / static_cast<double>(conv);
    EXPECT_LT(overhead, 2.0);
}

TEST(GapHeadline, MoreFactoriesWidenLsqcaGap)
{
    // Sec. VI-B: with more MSFs the magic bottleneck fades and the
    // LSQCA/conventional gap grows (until banking closes it again).
    const Circuit adder = makeAdder(24);
    const Program p = translate(lowerToCliffordT(adder));
    SimOptions point;
    point.arch.sam = SamKind::Point;
    std::vector<double> overheads;
    for (std::int32_t f : {1, 4}) {
        point.arch.factories = f;
        const auto lsqca = simulate(p, point).execBeats;
        const auto conv =
            simulateConventional(p, {.arch = {.factories = f}}).execBeats;
        overheads.push_back(static_cast<double>(lsqca) /
                            static_cast<double>(conv));
    }
    EXPECT_GT(overheads[1], overheads[0]);
}

} // namespace
} // namespace lsqca
