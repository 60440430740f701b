#ifndef LSQCA_TESTS_CIRCUIT_RANDOM_MACRO_CIRCUIT_H
#define LSQCA_TESTS_CIRCUIT_RANDOM_MACRO_CIRCUIT_H

/**
 * @file
 * Seeded random macro-level circuits, shared by the lowering fuzz
 * (tests/circuit/lowering_fuzz_test.cpp) and the one-pass build
 * differential (tests/translate/one_pass_differential_test.cpp).
 */

#include <array>
#include <cstdint>

#include "circuit/circuit.h"
#include "common/rng.h"

namespace lsqca {

/**
 * Random 6-qubit macro circuit: Clifford + T + CCX + temporary-AND
 * pairs. AND targets are tracked so AndInit always hits a |0> cell and
 * is eventually uncomputed, and the controls of a live AND are frozen
 * until its uncompute — the temporary-AND contract every real generator
 * in src/synth honors (measurement-based uncomputation assumes the
 * controls are untouched in between). Qubits 4-5 serve as the AND
 * scratch pool.
 *
 * With @p classical set, the circuit also draws Swaps, Z/X measurements
 * and classically-conditioned Cliffords on measured bits: gates the
 * translator must number and guard, but which make the state-vector
 * comparison seed-dependent. Without it the draws are the unitary mix
 * alone, unchanged for a given seed.
 */
inline Circuit
randomMacroCircuit(std::uint64_t seed, std::int64_t gates,
                   bool classical = false)
{
    Rng rng(seed);
    Circuit c(6);
    // Scratch state: -1 = free, otherwise packed (a<<3)|b of the live
    // AND's controls (those controls are frozen while live).
    std::array<std::int32_t, 2> live{-1, -1};
    auto frozen = [&](QubitId q) {
        for (const std::int32_t pair : live)
            if (pair != -1 && ((pair >> 3) == q || (pair & 7) == q))
                return true;
        return false;
    };
    auto freeQubit = [&]() -> QubitId {
        for (int attempt = 0; attempt < 8; ++attempt) {
            const auto q = static_cast<QubitId>(rng.below(4));
            if (!frozen(q))
                return q;
        }
        return kNoQubit;
    };
    for (std::int64_t i = 0; i < gates; ++i) {
        switch (rng.below(classical ? 13 : 10)) {
          case 0: case 1: case 2: case 3: {
            const QubitId q = freeQubit();
            if (q == kNoQubit)
                break;
            switch (rng.below(4)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: c.t(q); break;
              default: c.tdg(q); break;
            }
            break;
          }
          case 4: case 5: {
            const QubitId a = freeQubit();
            const QubitId b = freeQubit();
            if (a == kNoQubit || b == kNoQubit || a == b)
                break;
            if (rng.chance(0.5))
                c.cx(a, b);
            else
                c.cz(a, b);
            break;
          }
          case 6: {
            const QubitId a = freeQubit();
            const QubitId b = freeQubit();
            const QubitId t = freeQubit();
            if (a == kNoQubit || b == kNoQubit || t == kNoQubit ||
                a == b || a == t || b == t)
                break;
            c.ccx(a, b, t);
            break;
          }
          case 7: { // open a temporary AND if a scratch cell is free
            for (std::size_t s = 0; s < live.size(); ++s) {
                if (live[s] == -1) {
                    const QubitId a = freeQubit();
                    const QubitId b = freeQubit();
                    if (a == kNoQubit || b == kNoQubit || a == b)
                        break;
                    c.andInit(a, b, static_cast<QubitId>(4 + s));
                    live[s] = (a << 3) | b;
                    break;
                }
            }
            break;
          }
          case 8: { // close a live AND
            for (std::size_t s = 0; s < live.size(); ++s) {
                if (live[s] != -1) {
                    c.andUncompute(live[s] >> 3, live[s] & 7,
                                   static_cast<QubitId>(4 + s));
                    live[s] = -1;
                    break;
                }
            }
            break;
          }
          case 10: {
            const QubitId a = freeQubit();
            const QubitId b = freeQubit();
            if (a != kNoQubit && b != kNoQubit && a != b)
                c.swap(a, b);
            break;
          }
          case 11: {
            const QubitId q = freeQubit();
            if (q == kNoQubit)
                break;
            if (rng.chance(0.5))
                c.measZ(q);
            else
                c.measX(q);
            break;
          }
          case 12: { // a Clifford guarded on an earlier measurement
            const QubitId a = freeQubit();
            const QubitId b = freeQubit();
            if (c.numClassicalBits() == 0 || a == kNoQubit)
                break;
            const auto cond = static_cast<ClassicalBit>(rng.below(
                static_cast<std::uint64_t>(c.numClassicalBits())));
            static constexpr GateKind kOneQubit[] = {
                GateKind::H, GateKind::S, GateKind::Sdg, GateKind::X,
                GateKind::Z, GateKind::PrepZ, GateKind::PrepX};
            if (b == kNoQubit || a == b || rng.chance(0.6)) {
                c.appendConditioned(kOneQubit[rng.below(7)], a, cond);
                break;
            }
            Gate g;
            g.kind = rng.chance(0.5) ? GateKind::CX : GateKind::CZ;
            g.qubits[0] = a;
            g.qubits[1] = b;
            g.condBit = cond;
            c.append(g);
            break;
          }
          default: {
            const QubitId q = freeQubit();
            if (q != kNoQubit)
                c.x(q);
            break;
          }
        }
    }
    for (std::size_t s = 0; s < live.size(); ++s)
        if (live[s] != -1)
            c.andUncompute(live[s] >> 3, live[s] & 7,
                           static_cast<QubitId>(4 + s));
    return c;
}

} // namespace lsqca

#endif // LSQCA_TESTS_CIRCUIT_RANDOM_MACRO_CIRCUIT_H
