#include "circuit/statevector.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.h"

namespace lsqca {
namespace {

constexpr double kEps = 1e-10;

TEST(StateVector, InitializesToZeroState)
{
    StateVector sv(3);
    EXPECT_NEAR(sv.probability(0), 1.0, kEps);
    EXPECT_NEAR(sv.norm(), 1.0, kEps);
}

TEST(StateVector, CapacityGuard)
{
    EXPECT_THROW(StateVector(0), ConfigError);
    EXPECT_THROW(StateVector(StateVector::kMaxQubits + 1), ConfigError);
}

TEST(StateVector, XFlipsBit)
{
    StateVector sv(2);
    sv.applyX(1);
    EXPECT_NEAR(sv.probability(0b10), 1.0, kEps);
}

TEST(StateVector, InvolutionsSquareToIdentity)
{
    StateVector sv(1);
    sv.applyH(0);
    sv.applyH(0);
    EXPECT_NEAR(sv.probability(0), 1.0, kEps);
    sv.applyX(0);
    sv.applyX(0);
    EXPECT_NEAR(sv.probability(0), 1.0, kEps);
}

TEST(StateVector, SSquaredIsZ)
{
    // On |+>: S^2 |+> == Z |+> == |->, so H S S |+> == |1>.
    StateVector sv(1);
    sv.applyH(0);
    sv.applyS(0);
    sv.applyS(0);
    sv.applyH(0);
    EXPECT_NEAR(sv.probabilityOne(0), 1.0, kEps);
}

TEST(StateVector, TSquaredIsS)
{
    StateVector a(1), b(1);
    a.applyH(0);
    a.applyT(0);
    a.applyT(0);
    b.applyH(0);
    b.applyS(0);
    EXPECT_NEAR(a.fidelity(b), 1.0, kEps);
}

TEST(StateVector, TdgUndoesT)
{
    StateVector sv(1);
    sv.applyH(0);
    sv.applyT(0);
    sv.applyTdg(0);
    sv.applyH(0);
    EXPECT_NEAR(sv.probability(0), 1.0, kEps);
}

TEST(StateVector, SdgUndoesS)
{
    StateVector sv(1);
    sv.applyH(0);
    sv.applyS(0);
    sv.applySdg(0);
    sv.applyH(0);
    EXPECT_NEAR(sv.probability(0), 1.0, kEps);
}

TEST(StateVector, HXHIsZ)
{
    StateVector a(1), b(1);
    a.applyH(0);
    a.applyX(0);
    a.applyH(0);
    b.applyZ(0);
    EXPECT_NEAR(a.fidelity(b), 1.0, kEps);
}

TEST(StateVector, YEqualsIXZUpToPhase)
{
    // |<psi_Y | psi_XZ>|^2 == 1 since Y == i X Z.
    StateVector a(1), b(1);
    a.applyH(0);
    a.applyY(0);
    b.applyH(0);
    b.applyZ(0);
    b.applyX(0);
    EXPECT_NEAR(a.fidelity(b), 1.0, kEps);
}

TEST(StateVector, BellStateProbabilities)
{
    StateVector sv(2);
    sv.applyH(0);
    sv.applyCX(0, 1);
    EXPECT_NEAR(sv.probability(0b00), 0.5, kEps);
    EXPECT_NEAR(sv.probability(0b11), 0.5, kEps);
    EXPECT_NEAR(sv.probability(0b01), 0.0, kEps);
    EXPECT_NEAR(sv.probability(0b10), 0.0, kEps);
}

TEST(StateVector, CZPhaseOnlyOnBothOnes)
{
    // CZ on |11> flips the sign; verify via interference: the state
    // H(0) H(1) CZ H(0) H(1) |00> has probability 1/4 on each of the
    // four outcomes... instead compare against the direct matrix effect.
    StateVector a(2), b(2);
    a.applyX(0);
    a.applyX(1);
    a.applyCZ(0, 1);
    b.applyX(0);
    b.applyX(1);
    b.applyZ(0); // phase -1 on |1> of qubit 0 == global -1 here
    EXPECT_NEAR(a.fidelity(b), 1.0, kEps);
}

TEST(StateVector, SwapExchangesStates)
{
    StateVector sv(2);
    sv.applyX(0);
    sv.applySwap(0, 1);
    EXPECT_NEAR(sv.probability(0b10), 1.0, kEps);
}

TEST(StateVector, CCXTruthTable)
{
    for (std::uint64_t in = 0; in < 8; ++in) {
        StateVector sv(3);
        for (int q = 0; q < 3; ++q)
            if (in & (1u << q))
                sv.applyX(q);
        sv.applyCCX(0, 1, 2);
        const std::uint64_t expected =
            ((in & 1) && (in & 2)) ? (in ^ 4) : in;
        EXPECT_NEAR(sv.probability(expected), 1.0, kEps)
            << "input " << in;
    }
}

TEST(StateVector, MeasureZCollapsesDeterministically)
{
    StateVector sv(1);
    sv.applyX(0);
    EXPECT_TRUE(sv.measureZ(0));
    EXPECT_NEAR(sv.probabilityOne(0), 1.0, kEps);
}

TEST(StateVector, MeasureXOnPlusIsZero)
{
    StateVector sv(1);
    sv.applyH(0); // |+>
    EXPECT_FALSE(sv.measureX(0));
    sv.applyZ(0); // |->
    EXPECT_TRUE(sv.measureX(0));
}

TEST(StateVector, MeasurementPreservesNorm)
{
    StateVector sv(3, 123);
    sv.applyH(0);
    sv.applyCX(0, 1);
    sv.applyH(2);
    sv.measureZ(1);
    EXPECT_NEAR(sv.norm(), 1.0, kEps);
}

TEST(StateVector, ResetsWork)
{
    StateVector sv(2, 7);
    sv.applyH(0);
    sv.applyCX(0, 1);
    sv.resetZ(0);
    EXPECT_NEAR(sv.probabilityOne(0), 0.0, kEps);
    sv.resetX(1);
    // |+> has probability 1/2 of measuring one.
    EXPECT_NEAR(sv.probabilityOne(1), 0.5, kEps);
}

TEST(StateVector, ConditionedGateRespectsBits)
{
    Circuit c(2);
    const ClassicalBit b = c.measZ(0); // measures |0> -> bit 0
    c.appendConditioned(GateKind::X, 1, b);
    auto run = runStateVector(c);
    EXPECT_NEAR(run.state.probabilityOne(1), 0.0, kEps);

    Circuit c2(2);
    c2.x(0);
    const ClassicalBit b2 = c2.measZ(0); // bit 1
    c2.appendConditioned(GateKind::X, 1, b2);
    auto run2 = runStateVector(c2);
    EXPECT_NEAR(run2.state.probabilityOne(1), 1.0, kEps);
}

TEST(StateVector, RunClassicalEchoesInputs)
{
    Circuit c(4);
    // Identity network: outputs mirror the prepared inputs.
    const auto bits = runClassical(c, {1, 3}, {0, 1, 2, 3});
    EXPECT_FALSE(bits[0]);
    EXPECT_TRUE(bits[1]);
    EXPECT_FALSE(bits[2]);
    EXPECT_TRUE(bits[3]);
}

TEST(StateVector, GhzCircuitViaGateInterface)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    auto run = runStateVector(c);
    EXPECT_NEAR(run.state.probability(0b000), 0.5, kEps);
    EXPECT_NEAR(run.state.probability(0b111), 0.5, kEps);
}

TEST(StateVector, AndMacrosActAsToffoli)
{
    Circuit c(3);
    c.x(0);
    c.x(1);
    c.andInit(0, 1, 2);
    auto run = runStateVector(c);
    EXPECT_NEAR(run.state.probabilityOne(2), 1.0, kEps);
}

/** A gate mix touching every kernel shape on qubits a, b, c. */
void
applyMix(StateVector &sv, QubitId a, QubitId b, QubitId c)
{
    sv.applyH(a);
    sv.applyT(a);
    sv.applyCX(a, b);
    sv.applyH(c);
    sv.applyS(c);
    sv.applyCCX(a, c, b);
    sv.applyY(b);
    sv.applyCZ(a, c);
    sv.applySwap(b, c);
    sv.applyTdg(a);
    sv.applySdg(b);
    sv.applyX(c);
    sv.applyH(b);
}

TEST(StateVector, LargeRegisterMatchesASmallOne)
{
    // 18 qubits is 2^18 amplitudes, where the kernels once switched to
    // a threaded path; they now run serially at every size. The same
    // circuit on three far-apart qubits of an 18-qubit register must
    // leave the amplitudes of the 3-qubit run, measurement included.
    const std::array<QubitId, 3> wide = {0, 9, 17};
    StateVector small(3, 99), large(18, 99);
    applyMix(small, 0, 1, 2);
    applyMix(large, wide[0], wide[1], wide[2]);
    const auto compare = [&] {
        EXPECT_NEAR(large.norm(), 1.0, kEps);
        for (std::uint64_t k = 0; k < 8; ++k) {
            std::uint64_t index = 0;
            for (std::size_t q = 0; q < 3; ++q)
                if ((k >> q) & 1)
                    index |= std::uint64_t{1} << wide[q];
            EXPECT_NEAR(large.amplitude(index).real(),
                        small.amplitude(k).real(), kEps)
                << k;
            EXPECT_NEAR(large.amplitude(index).imag(),
                        small.amplitude(k).imag(), kEps)
                << k;
        }
        for (std::size_t q = 0; q < 3; ++q)
            EXPECT_NEAR(large.probabilityOne(wide[q]),
                        small.probabilityOne(static_cast<QubitId>(q)),
                        kEps);
    };
    compare();
    EXPECT_EQ(large.measureZ(wide[1]), small.measureZ(1));
    compare();
}

TEST(StateVector, IndependentRegistersRunConcurrently)
{
    // No kernel shares state across registers, so separate threads may
    // each drive their own StateVector and match the serial run.
    constexpr int kThreads = 4;
    constexpr std::int32_t kQubits = 16;
    StateVector reference(kQubits);
    for (QubitId q = 0; q + 2 < kQubits; q += 3)
        applyMix(reference, q, q + 1, q + 2);

    std::vector<StateVector> states(kThreads, StateVector(kQubits));
    {
        std::vector<std::jthread> threads;
        for (StateVector &sv : states)
            threads.emplace_back([&sv] {
                for (QubitId q = 0; q + 2 < kQubits; q += 3)
                    applyMix(sv, q, q + 1, q + 2);
            });
    }
    for (const StateVector &sv : states)
        EXPECT_NEAR(sv.fidelity(reference), 1.0, kEps);
}

} // namespace
} // namespace lsqca
