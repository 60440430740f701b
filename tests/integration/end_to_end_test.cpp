#include <gtest/gtest.h>

#include "analysis/trace_analysis.h"
#include "circuit/lowering.h"
#include "sim/collectors/trace_collector.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** Full pipeline: synthesize -> lower -> translate -> simulate. */
SimResult
runPipeline(const Circuit &circuit, SamKind sam, std::int32_t banks = 1,
            std::int32_t factories = 1)
{
    const Program p = translate(lowerToCliffordT(circuit));
    SimOptions opts;
    opts.arch.sam = sam;
    opts.arch.banks = banks;
    opts.arch.factories = factories;
    return simulate(p, opts);
}

TEST(EndToEnd, AdderOnAllArchitectures)
{
    const Circuit adder = makeAdder(8);
    const auto conv = runPipeline(adder, SamKind::Conventional);
    const auto point = runPipeline(adder, SamKind::Point);
    const auto line = runPipeline(adder, SamKind::Line);
    EXPECT_GT(conv.execBeats, 0);
    EXPECT_GE(point.execBeats, conv.execBeats);
    EXPECT_GE(line.execBeats, conv.execBeats);
    EXPECT_GT(point.density(), line.density());
    EXPECT_GT(line.density(), conv.density());
}

TEST(EndToEnd, MagicHeavyCircuitsHideMemoryLatency)
{
    // For the magic-bound adder, the LSQCA overhead at one factory must
    // be a small fraction; for the Clifford-only cat chain it is large.
    const Circuit adder = makeAdder(16);
    const double adder_overhead =
        static_cast<double>(runPipeline(adder, SamKind::Line).execBeats) /
        static_cast<double>(
            runPipeline(adder, SamKind::Conventional).execBeats);

    const Circuit cat = makeCat(49);
    const double cat_overhead =
        static_cast<double>(runPipeline(cat, SamKind::Line).execBeats) /
        static_cast<double>(
            runPipeline(cat, SamKind::Conventional).execBeats);

    // The 16-bit adder's serial carry chain conceals only part of the
    // latency (~2x); the Clifford-only cat conceals none.
    EXPECT_LT(adder_overhead, 2.5);
    EXPECT_GT(cat_overhead, 2.5);
    EXPECT_GT(cat_overhead, adder_overhead);
}

TEST(EndToEnd, MultiBankImprovesLineSam)
{
    const Circuit sel = makeSelect({3, 0});
    const auto one = runPipeline(sel, SamKind::Line, 1, 4);
    const auto four = runPipeline(sel, SamKind::Line, 4, 4);
    EXPECT_LE(four.execBeats, one.execBeats);
}

TEST(EndToEnd, LocalityAwareStoreHelpsPointSam)
{
    const Circuit sel = makeSelect({3, 0});
    const Program p = translate(lowerToCliffordT(sel));
    SimOptions with;
    with.arch.sam = SamKind::Point;
    SimOptions without = with;
    without.arch.localityStore = false;
    EXPECT_LE(simulate(p, with).execBeats,
              simulate(p, without).execBeats);
}

TEST(EndToEnd, InMemoryOpsReduceTime)
{
    const Circuit adder = makeAdder(6);
    const Circuit lowered = lowerToCliffordT(adder);
    const Program in_mem = translate(lowered);
    TranslateOptions topts;
    topts.inMemoryOps = false;
    const Program ld_st = translate(lowered, topts);
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    const auto fast = simulate(in_mem, opts).execBeats;
    opts.arch.inMemoryOps = false;
    const auto slow = simulate(ld_st, opts).execBeats;
    EXPECT_LT(fast, slow);
}

TEST(EndToEnd, Fig8StyleTraceAnalysisRuns)
{
    const Circuit lowered = lowerToCliffordT(makeSelect({4, 100}));
    const Program p = translate(lowered);
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.instantMagic = true;
    collectors::TraceCollector trace;
    opts.observers = {&trace};
    simulate(p, opts);
    const TraceAnalysis analysis(p, trace);
    EXPECT_GT(analysis.totalReferences(), 100);
    EXPECT_GT(analysis.magicDemandInterval(), 0.0);
    // Register CDFs exist for control/temporal/system.
    EXPECT_EQ(analysis.groups().size(), 4u);
}

TEST(EndToEnd, HybridSweepTradesDensityForTime)
{
    const Circuit sel = makeSelect({3, 0});
    const Program p = translate(lowerToCliffordT(sel));
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    std::vector<double> densities;
    std::vector<std::int64_t> times;
    for (double f : {0.0, 0.5, 1.0}) {
        opts.arch.hybridFraction = f;
        const SimResult r = simulate(p, opts);
        densities.push_back(r.density());
        times.push_back(r.execBeats);
    }
    EXPECT_GT(densities[0], densities[1]);
    EXPECT_GT(densities[1], densities[2]);
    EXPECT_GE(times[0], times[1]);
    EXPECT_GE(times[1], times[2]);
}

TEST(EndToEnd, PaperSuiteRunsEndToEnd)
{
    // Miniature versions of all seven programs flow through the whole
    // stack on every architecture without error.
    std::vector<Circuit> programs;
    programs.push_back(makeAdder(5));
    programs.push_back(makeBernsteinVazirani(12));
    programs.push_back(makeCat(12));
    programs.push_back(makeGhz(12));
    programs.push_back(makeMultiplier({3, 3}));
    programs.push_back(makeSquareRoot({2, 1, 1}));
    programs.push_back(makeSelect({2, 0}));
    for (const auto &circ : programs) {
        for (SamKind sam :
             {SamKind::Point, SamKind::Line, SamKind::Conventional}) {
            const SimResult r = runPipeline(circ, sam);
            EXPECT_GT(r.execBeats, 0);
            EXPECT_GT(r.countedInstructions, 0);
        }
    }
}

} // namespace
} // namespace lsqca
