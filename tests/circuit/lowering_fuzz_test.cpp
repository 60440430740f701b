/**
 * @file
 * Semantic fuzz: random macro-level circuits (Clifford + T + CCX +
 * temporary-AND pairs) must match their Clifford+T lowerings exactly on
 * the state-vector oracle, for both Toffoli styles and across
 * measurement-randomness seeds. This is the broad net behind the
 * hand-picked lowering tests.
 */

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "circuit/statevector.h"
#include "random_macro_circuit.h"

namespace lsqca {
namespace {

constexpr double kEps = 1e-9;

class LoweringFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LoweringFuzz, Textbook7TMatchesMacros)
{
    const Circuit macro = randomMacroCircuit(GetParam(), 60);
    const Circuit lowered =
        lowerToCliffordT(macro, ToffoliStyle::Textbook7T);
    auto ref = runStateVector(macro, {0, 2}, GetParam());
    auto low = runStateVector(lowered, {0, 2}, GetParam() * 31 + 7);
    EXPECT_NEAR(low.state.fidelity(ref.state), 1.0, kEps);
}

TEST_P(LoweringFuzz, TemporaryAnd4TMatchesMacros)
{
    const Circuit macro = randomMacroCircuit(GetParam(), 60);
    const Circuit lowered =
        lowerToCliffordT(macro, ToffoliStyle::TemporaryAnd4T);
    // The 4T style may append one shared ancilla; pad the reference.
    Circuit padded(lowered.numQubits());
    for (const auto &g : macro.gates())
        padded.append(g);
    auto ref = runStateVector(padded, {1, 3}, GetParam());
    auto low = runStateVector(lowered, {1, 3}, GetParam() * 17 + 3);
    EXPECT_NEAR(low.state.fidelity(ref.state), 1.0, kEps);
}

TEST_P(LoweringFuzz, LoweredOutputIsAlwaysCliffordT)
{
    const Circuit macro = randomMacroCircuit(GetParam(), 80);
    for (ToffoliStyle style :
         {ToffoliStyle::Textbook7T, ToffoliStyle::TemporaryAnd4T}) {
        const Circuit lowered = lowerToCliffordT(macro, style);
        for (const auto &g : lowered.gates())
            ASSERT_TRUE(isCliffordTGate(g.kind)) << gateName(g.kind);
    }
}

TEST_P(LoweringFuzz, MeasurementRandomnessDoesNotLeak)
{
    // The AND-uncompute involves random X-measurements; the corrected
    // state must be seed-independent.
    const Circuit macro = randomMacroCircuit(GetParam(), 50);
    const Circuit lowered = lowerToCliffordT(macro);
    auto a = runStateVector(lowered, {}, 1111);
    auto b = runStateVector(lowered, {}, 2222);
    EXPECT_NEAR(a.state.fidelity(b.state), 1.0, kEps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

} // namespace
} // namespace lsqca
