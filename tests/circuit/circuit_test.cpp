#include "circuit/circuit.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.h"

namespace lsqca {
namespace {

// Lvalue-only accessors: `for (g : makeCircuit().gates())` and its
// registers() twin must stay compile errors.
template <typename C>
constexpr bool kGatesCompile = requires { std::declval<C>().gates(); };
static_assert(kGatesCompile<const Circuit &>);
static_assert(!kGatesCompile<Circuit>);
template <typename C>
constexpr bool kRegistersCompile =
    requires { std::declval<C>().registers(); };
static_assert(kRegistersCompile<const Circuit &>);
static_assert(!kRegistersCompile<Circuit>);

TEST(Circuit, RegistersAreContiguous)
{
    Circuit c;
    const QubitId a = c.addRegister("a", 3);
    const QubitId b = c.addRegister("b", 2);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 3);
    EXPECT_EQ(c.numQubits(), 5);
    EXPECT_EQ(c.registerOf(0), 0);
    EXPECT_EQ(c.registerOf(4), 1);
    EXPECT_EQ(c.reg("b").size, 2);
    EXPECT_THROW(c.reg("missing"), ConfigError);
    EXPECT_THROW(c.addRegister("a", 1), ConfigError); // duplicate name
}

TEST(Circuit, OperandValidation)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), ConfigError);
    EXPECT_THROW(c.h(-1), ConfigError);
    EXPECT_THROW(c.cx(0, 0), ConfigError); // duplicate operands
    EXPECT_NO_THROW(c.cx(0, 1));
}

TEST(Circuit, MeasurementAllocatesBits)
{
    Circuit c(2);
    const ClassicalBit b0 = c.measZ(0);
    const ClassicalBit b1 = c.measX(1);
    EXPECT_EQ(b0, 0);
    EXPECT_EQ(b1, 1);
    EXPECT_EQ(c.numClassicalBits(), 2);
}

TEST(Circuit, ConditionedGateValidation)
{
    Circuit c(2);
    const ClassicalBit b = c.measZ(0);
    EXPECT_NO_THROW(c.appendConditioned(GateKind::S, 1, b));
    EXPECT_THROW(c.appendConditioned(GateKind::S, 1, 99), ConfigError);
    EXPECT_THROW(c.appendConditioned(GateKind::CX, 1, b), ConfigError);
}

TEST(Circuit, TCountCountsMacros)
{
    Circuit c(4);
    c.t(0);
    c.tdg(1);
    EXPECT_EQ(c.tCount(), 2);
    c.ccx(0, 1, 2);     // +4 (temporary-AND equivalent)
    c.andInit(0, 1, 3); // +4
    EXPECT_EQ(c.tCount(), 10);
    EXPECT_EQ(c.toffoliCount(), 2);
}

TEST(Circuit, TwoQubitCount)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cz(1, 2);
    c.ccx(0, 1, 2);
    EXPECT_EQ(c.twoQubitCount(), 3);
}

TEST(Circuit, UnitDepthTracksDependencies)
{
    Circuit c(3);
    // Parallel layer: h q0, h q1, h q2 -> depth 1.
    c.h(0);
    c.h(1);
    c.h(2);
    EXPECT_EQ(c.unitDepth(), 1);
    // Serial chain adds depth.
    c.cx(0, 1);
    c.cx(1, 2);
    EXPECT_EQ(c.unitDepth(), 3);
}

TEST(Circuit, DepthHonorsLatencyFunction)
{
    Circuit c(2);
    c.h(0);      // 3 beats
    c.s(0);      // 2 beats
    c.cx(0, 1);  // 1 beat
    const auto latency = [](const Gate &g) -> std::int64_t {
        switch (g.kind) {
          case GateKind::H: return 3;
          case GateKind::S: return 2;
          case GateKind::CX: return 1;
          default: return 0;
        }
    };
    EXPECT_EQ(c.depth(latency), 6);
}

TEST(Circuit, DepthIncludesClassicalEdges)
{
    Circuit c(2);
    const ClassicalBit b = c.measZ(0);
    c.appendConditioned(GateKind::X, 1, b); // depends on b
    // Unit latency: meas (1) then conditioned x (1) = 2 even though the
    // two gates touch disjoint qubits.
    EXPECT_EQ(c.unitDepth(), 2);
}

TEST(Circuit, ReferenceCounts)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 2);
    const auto refs = c.referenceCounts();
    EXPECT_EQ(refs[0], 3);
    EXPECT_EQ(refs[1], 1);
    EXPECT_EQ(refs[2], 1);
}

TEST(Gate, StringRendering)
{
    Circuit c(3);
    c.cx(0, 1);
    EXPECT_EQ(c.gates().back().str(), "cx q0, q1");
    const ClassicalBit b = c.measZ(2);
    EXPECT_EQ(c.gates().back().str(), "meas_z q2 -> c" + std::to_string(b));
    c.appendConditioned(GateKind::S, 0, b);
    EXPECT_EQ(c.gates().back().str(), "s q0 if c0");
}

TEST(Gate, ArityTable)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::CX), 2);
    EXPECT_EQ(gateArity(GateKind::CCX), 3);
    EXPECT_EQ(gateArity(GateKind::AndInit), 3);
    EXPECT_EQ(gateArity(GateKind::MeasX), 1);
}

} // namespace
} // namespace lsqca
