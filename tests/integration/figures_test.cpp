/**
 * @file
 * Figure-shape regressions: the qualitative relations each figure of
 * the paper asserts, checked at miniature scale so the whole net runs
 * in seconds. These are the invariants a refactor must not break.
 */

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "sim/collectors/trace_collector.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

struct MiniSuite
{
    std::string name;
    Program program;
    bool cliffordOnly;
};

const std::vector<MiniSuite> &
miniSuite()
{
    static const std::vector<MiniSuite> suite = [] {
        std::vector<MiniSuite> loads;
        auto add = [&](const char *name, const Circuit &c,
                       bool clifford) {
            loads.push_back(
                {name, translate(lowerToCliffordT(c)), clifford});
        };
        add("adder", makeAdder(16), false);
        add("bv", makeBernsteinVazirani(48), true);
        add("cat", makeCat(48), true);
        add("ghz", makeGhz(48), true);
        add("multiplier", makeMultiplier({8, 6}), false);
        add("square_root", makeSquareRoot({3, 4, 1}), false);
        add("SELECT", makeSelect({4, 0}), false);
        return loads;
    }();
    return suite;
}

double
overhead(const Program &p, SamKind sam, std::int32_t banks,
         std::int32_t factories)
{
    SimOptions opts;
    opts.arch.sam = sam;
    opts.arch.banks = banks;
    opts.arch.factories = factories;
    const auto lsqca = simulate(p, opts).execBeats;
    const auto conv =
        simulateConventional(p, {.arch = {.factories = factories}})
            .execBeats;
    return static_cast<double>(lsqca) / static_cast<double>(conv);
}

TEST(Fig13Shape, CliffordProgramsSufferMostOnPointSam)
{
    // bv/cat/ghz (no magic bottleneck) must show larger point-SAM
    // overheads than every magic-bound program.
    double worst_magic_bound = 0;
    double best_clifford = 1e18;
    for (const auto &load : miniSuite()) {
        const double ratio = overhead(load.program, SamKind::Point, 1, 1);
        if (load.cliffordOnly)
            best_clifford = std::min(best_clifford, ratio);
        else
            worst_magic_bound = std::max(worst_magic_bound, ratio);
    }
    EXPECT_GT(best_clifford, worst_magic_bound);
}

TEST(Fig13Shape, BanksNeverHurt)
{
    for (const auto &load : miniSuite()) {
        const double one = overhead(load.program, SamKind::Line, 1, 1);
        const double four = overhead(load.program, SamKind::Line, 4, 1);
        EXPECT_LE(four, one * 1.05) << load.name;
    }
}

TEST(Fig13Shape, FactoriesWidenTheGapForMagicBoundPrograms)
{
    for (const auto &load : miniSuite()) {
        if (load.cliffordOnly)
            continue;
        const double f1 = overhead(load.program, SamKind::Point, 1, 1);
        const double f4 = overhead(load.program, SamKind::Point, 1, 4);
        EXPECT_GE(f4, f1 * 0.95) << load.name;
    }
}

TEST(Fig13Shape, LineBeatsPointOnTime)
{
    for (const auto &load : miniSuite()) {
        const double point = overhead(load.program, SamKind::Point, 1, 1);
        const double line = overhead(load.program, SamKind::Line, 1, 1);
        EXPECT_LE(line, point * 1.10) << load.name;
    }
}

TEST(Fig14Shape, HybridCurveMonotoneForEveryBenchmark)
{
    // Density decreases with f while some SAM remains; the f=1 endpoint
    // (no CR/SAM at all) is exactly the 0.5 baseline. At miniature
    // sizes the CR is comparatively large, so the final jump to 0.5 can
    // go up — which is why the endpoint is checked separately.
    for (const auto &load : miniSuite()) {
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        double prev_density = 2.0;
        for (double f : {0.0, 0.2, 0.4, 0.6, 0.8}) {
            opts.arch.hybridFraction = f;
            const SimResult r = simulate(load.program, opts);
            EXPECT_LE(r.density(), prev_density + 1e-12) << load.name;
            prev_density = r.density();
        }
        opts.arch.hybridFraction = 1.0;
        const SimResult endpoint = simulate(load.program, opts);
        EXPECT_DOUBLE_EQ(endpoint.density(), 0.5) << load.name;
        // And f=1 is never slower than f=0 (pure LSQCA).
        opts.arch.hybridFraction = 0.0;
        EXPECT_LE(endpoint.execBeats,
                  simulate(load.program, opts).execBeats)
            << load.name;
    }
}

TEST(Fig15Shape, SelectDensityGrowsWithInstanceSize)
{
    double prev = 0.0;
    for (std::int32_t width : {4, 6, 8}) {
        const Program p =
            translate(lowerToCliffordT(makeSelect({width, 60})));
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        const double density = simulate(p, opts).density();
        EXPECT_GT(density, prev) << "width " << width;
        prev = density;
    }
}

TEST(Fig15Shape, HybridPinsHotRegistersAndWins)
{
    const SelectLayout layout = selectLayout(5);
    const Program p = translate(lowerToCliffordT(makeSelect({5, 0})));
    const double hot = static_cast<double>(layout.controlBits +
                                           layout.temporalBits) /
                       static_cast<double>(layout.totalQubits);
    SimOptions pure;
    pure.arch.sam = SamKind::Point;
    SimOptions hybrid = pure;
    hybrid.arch.hybridFraction = hot;
    const SimResult a = simulate(p, pure);
    const SimResult b = simulate(p, hybrid);
    EXPECT_LT(b.execBeats, a.execBeats); // faster
    EXPECT_GT(b.density(), 0.6);         // still far above 1/2
}

TEST(Fig8Shape, MagicIntervalOrdersMultiplierBeforeSelect)
{
    // The multiplier demands magic states faster than SELECT
    // (paper: 2.14 vs 11.6 beats).
    auto interval = [](const Circuit &c) {
        const Program p = translate(lowerToCliffordT(c));
        SimOptions opts;
        opts.arch.sam = SamKind::Conventional;
        opts.arch.instantMagic = true;
        collectors::TraceCollector trace;
        opts.observers = {&trace};
        simulate(p, opts);
        const std::vector<std::int64_t> &times = trace.magicTimes();
        double sum = 0;
        for (std::size_t i = 1; i < times.size(); ++i)
            sum += static_cast<double>(times[i] - times[i - 1]);
        return sum / static_cast<double>(times.size() - 1);
    };
    EXPECT_LT(interval(makeMultiplier({8, 6})),
              interval(makeSelect({4, 0})));
}

} // namespace
} // namespace lsqca
