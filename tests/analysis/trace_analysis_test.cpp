#include "analysis/trace_analysis.h"

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "common/error.h"
#include "sim/collectors/trace_collector.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

using collectors::TraceCollector;

TraceCollector
traceOf(const Program &p)
{
    TraceCollector trace;
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.instantMagic = true;
    opts.observers = {&trace};
    simulate(p, opts);
    return trace;
}

TEST(TraceAnalysis, TimestampsPerVariable)
{
    Circuit c(3);
    c.h(0);
    c.h(0);
    c.h(1);
    const Program p = translate(c);
    const TraceAnalysis analysis(p, traceOf(p));
    EXPECT_EQ(analysis.timestamps(0).size(), 2u);
    EXPECT_EQ(analysis.timestamps(1).size(), 1u);
    EXPECT_TRUE(analysis.timestamps(2).empty());
    EXPECT_EQ(analysis.totalReferences(), 3);
}

TEST(TraceAnalysis, PeriodsAreGapsBetweenReferences)
{
    // Two H on q0 back to back: period == 3 beats (H latency).
    Circuit c(1);
    c.h(0);
    c.h(0);
    c.h(0);
    const Program p = translate(c);
    const TraceAnalysis analysis(p, traceOf(p));
    const auto &all = analysis.groups()[0];
    EXPECT_EQ(all.references, 3);
    EXPECT_EQ(all.periods.count(), 2u);
    EXPECT_DOUBLE_EQ(analysis.meanPeriod(), 3.0);
}

TEST(TraceAnalysis, GroupsFollowRegisters)
{
    Circuit c;
    c.addRegister("hot", 1);
    c.addRegister("cold", 2);
    c.h(0);
    c.h(0);
    c.h(1);
    const Program p = translate(c);
    const TraceAnalysis analysis(p, traceOf(p));
    ASSERT_EQ(analysis.groups().size(), 3u); // all + 2 registers
    EXPECT_EQ(analysis.groups()[1].name, "hot");
    EXPECT_EQ(analysis.groups()[1].references, 2);
    EXPECT_EQ(analysis.groups()[2].name, "cold");
    EXPECT_EQ(analysis.groups()[2].references, 1);
}

TEST(TraceAnalysis, MagicDemandInterval)
{
    Circuit c(1);
    for (int i = 0; i < 5; ++i)
        c.t(0);
    const Program p = translate(c);
    const TraceAnalysis analysis(p, traceOf(p));
    EXPECT_GT(analysis.magicDemandInterval(), 0.0);
}

TEST(TraceAnalysis, SequentialFractionDetectsChains)
{
    // cat chain touches neighbors: sequential fraction should be high.
    const Program chain = translate(makeCat(40));
    const TraceAnalysis seq(chain, traceOf(chain));
    EXPECT_GT(seq.sequentialFraction(2), 0.8);
}

TEST(TraceAnalysis, SelectShowsRegisterSkew)
{
    // Fig. 8a: control/temporal hot, system cold.
    const Circuit lowered = lowerToCliffordT(makeSelect({5, 0}));
    const Program p = translate(lowered);
    const TraceAnalysis analysis(p, traceOf(p));
    double control_rate = 0, system_rate = 0;
    for (const auto &g : analysis.groups()) {
        if (g.name == "control")
            control_rate = static_cast<double>(g.references);
        if (g.name == "system")
            system_rate = static_cast<double>(g.references);
    }
    ASSERT_GT(control_rate, 0);
    ASSERT_GT(system_rate, 0);
    // Normalize per qubit: control has 8 qubits, system 25 (W=5).
    EXPECT_GT(control_rate / 8.0, 3.0 * system_rate / 25.0);
}

TEST(TraceAnalysis, TemporalLocalityInMultiplier)
{
    // Sec. III-B: many short periods, few long ones -> the CDF at small
    // periods is already substantial.
    const Circuit lowered = lowerToCliffordT(makeMultiplier({4, 3}));
    const Program p = translate(lowered);
    const TraceAnalysis analysis(p, traceOf(p));
    const auto &all = analysis.groups()[0];
    ASSERT_GT(all.periods.count(), 100u);
    const double median = all.periods.quantile(0.5);
    const double p99 = all.periods.quantile(0.99);
    EXPECT_LT(median, 10.0);
    EXPECT_GT(p99, median); // heavy tail exists
}

TEST(TraceAnalysis, RejectsOutOfRangeSamples)
{
    Program p(1);
    TraceCollector trace;
    InstructionEvent load;
    load.inst.op = Opcode::LD;
    load.inst.m0 = 5; // variable 5 out of range
    trace.onInstruction(load);
    EXPECT_THROW(TraceAnalysis(p, trace), ConfigError);
}

} // namespace
} // namespace lsqca
