#include "analysis/estimator.h"

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

struct EstimatorCase
{
    const char *name;
    SamKind sam;
    std::int32_t banks;
    std::int32_t factories;
};

class EstimatorBounds : public ::testing::TestWithParam<EstimatorCase>
{
};

TEST_P(EstimatorBounds, LowerBoundsHoldAgainstSimulation)
{
    const auto param = GetParam();
    const Program p = translate(lowerToCliffordT(makeAdder(10)));
    ArchConfig cfg;
    cfg.sam = param.sam;
    cfg.banks = param.banks;
    cfg.factories = param.factories;
    const ResourceEstimate est = estimateResources(p, cfg);
    SimOptions opts;
    opts.arch = cfg;
    const SimResult sim = simulate(p, opts);

    EXPECT_LE(est.lowerBoundBeats, sim.execBeats);
    EXPECT_LE(est.cpiLowerBound, sim.cpi + 1e-9);
    EXPECT_EQ(est.magicStates, sim.magicConsumed);
    EXPECT_DOUBLE_EQ(est.floorplan.density(), sim.density());
}

INSTANTIATE_TEST_SUITE_P(
    Machines, EstimatorBounds,
    ::testing::Values(EstimatorCase{"point1", SamKind::Point, 1, 1},
                      EstimatorCase{"point2", SamKind::Point, 2, 2},
                      EstimatorCase{"line1", SamKind::Line, 1, 1},
                      EstimatorCase{"line4", SamKind::Line, 4, 4},
                      EstimatorCase{"conv", SamKind::Conventional, 1,
                                    1}));

TEST(Estimator, ConventionalMatchesExactlyWhenMagicBound)
{
    // A pure chain of T gates on one qubit: the conventional machine is
    // exactly magic-production bound after the warm buffer drains.
    Circuit c(1);
    for (int i = 0; i < 20; ++i)
        c.t(0);
    const Program p = translate(c);
    ArchConfig cfg;
    cfg.sam = SamKind::Conventional;
    const ResourceEstimate est = estimateResources(p, cfg);
    EXPECT_EQ(est.magicStates, 20);
    EXPECT_EQ(est.magicProductionBeats, 18 * 15); // 2 warm states
    SimOptions opts;
    opts.arch = cfg;
    const SimResult sim = simulate(p, opts);
    EXPECT_LE(est.lowerBoundBeats, sim.execBeats);
    // The bound is tight within the gadget tail (one surgery + phase).
    EXPECT_GE(est.lowerBoundBeats, sim.execBeats - 16);
}

TEST(Estimator, InstantMagicZeroesProduction)
{
    Circuit c(1);
    c.t(0);
    const Program p = translate(c);
    ArchConfig cfg;
    cfg.instantMagic = true;
    const ResourceEstimate est = estimateResources(p, cfg);
    EXPECT_EQ(est.magicProductionBeats, 0);
    EXPECT_GT(est.dataflowBeats, 0);
}

TEST(Estimator, MoreFactoriesShrinkProduction)
{
    const Program p = translate(lowerToCliffordT(makeAdder(12)));
    ArchConfig one;
    ArchConfig four;
    four.factories = 4;
    EXPECT_GT(estimateResources(p, one).magicProductionBeats,
              estimateResources(p, four).magicProductionBeats);
}

TEST(Estimator, HybridFractionCountsConventionalCells)
{
    Program p(100);
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    cfg.hybridFraction = 0.5;
    const ResourceEstimate est = estimateResources(p, cfg);
    EXPECT_EQ(est.floorplan.conventionalCells, 100); // 2 * 50
    EXPECT_LT(est.floorplan.density(), 1.0);
}

TEST(Estimator, DataflowDepthRespectsSkBarriers)
{
    Program p(2);
    const auto v = p.newValue();
    Instruction mz;
    mz.op = Opcode::MZ_M;
    mz.m0 = 0;
    mz.v0 = v;
    p.append(mz);
    Instruction sk;
    sk.op = Opcode::SK;
    sk.v0 = v;
    p.append(sk);
    Instruction ph;
    ph.op = Opcode::PH_M;
    ph.m0 = 0;
    p.append(ph);
    ArchConfig cfg;
    cfg.lat.skWait = 5;
    const ResourceEstimate est = estimateResources(p, cfg);
    // SK waits 5 after the measurement; but PH on m0 depends only on
    // the variable here (the barrier is modeled in the simulator); the
    // dataflow estimate must still be <= simulation.
    SimOptions opts;
    opts.arch = cfg;
    EXPECT_LE(est.dataflowBeats, simulate(p, opts).execBeats);
}

} // namespace
} // namespace lsqca
