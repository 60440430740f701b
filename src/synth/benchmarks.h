#ifndef LSQCA_SYNTH_BENCHMARKS_H
#define LSQCA_SYNTH_BENCHMARKS_H

/**
 * @file
 * Generators for every benchmark program evaluated in the paper
 * (Sec. III-B and Sec. VI-B): adder, bv, cat, ghz, multiplier,
 * square_root, and SELECT for 2-D Heisenberg models.
 *
 * Default parameters reproduce the paper's logical-qubit counts exactly:
 * adder 433, bv 280, cat 260, ghz 127, multiplier 400, square_root 60,
 * SELECT(11) 143, and SELECT(21..101) with 467/1,711/3,753/6,595/10,235
 * data qubits (asserted in tests/synth/benchmarks_test.cpp).
 */

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"

namespace lsqca {

/**
 * VBE ripple-carry adder b := a + b (QASMBench adder family).
 *
 * Registers: a(w), b(w+1) (sum + carry-out), carry(w). Total 3w+1 qubits;
 * the paper's adder_n433 corresponds to w = 144.
 */
Circuit makeAdder(std::int32_t width = 144);

/**
 * Bernstein-Vazirani with an n-1-bit secret and one |-> ancilla.
 *
 * @param num_qubits total qubits (paper: 280).
 * @param secret     bitmask of the hidden string; ~0 means all-ones.
 */
Circuit makeBernsteinVazirani(std::int32_t num_qubits = 280,
                              std::uint64_t secret = ~0ULL);

/** Cat-state preparation via a linear CX chain (paper: 260 qubits). */
Circuit makeCat(std::int32_t num_qubits = 260);

/**
 * GHZ-state preparation via a linear CX chain, as in QASMBench
 * (paper: 127 qubits); differs from cat only in size.
 */
Circuit makeGhz(std::int32_t num_qubits = 127);

/** Parameters for the shift-add multiplier. */
struct MultiplierParams
{
    std::int32_t widthA = 81; ///< multiplicand bits
    std::int32_t widthB = 78; ///< multiplier bits
};

/**
 * Shift-add multiplier: product := a * b via controlled VBE additions.
 *
 * Registers: a(wa), b(wb), product(wa+wb), carry(wa+1). The defaults
 * (81 x 78) make the register file exactly the paper's 400 qubits.
 */
Circuit makeMultiplier(const MultiplierParams &params = {});

/** Parameters for the Grover square-root benchmark. */
struct SquareRootParams
{
    std::int32_t width = 10;      ///< bits of the searched value x
    std::uint64_t target = 49;    ///< N; the oracle marks x*x == N
    std::int32_t iterations = 2;  ///< Grover iterations
};

/**
 * Amplitude-amplification search for x with x^2 == N (QASMBench
 * square_root family). Registers: x(k), square(2k), carry(k+1),
 * ladder(2k-1); k = 10 gives the paper's 60 qubits.
 */
Circuit makeSquareRoot(const SquareRootParams &params = {});

/** One Pauli term of a Hamiltonian: a type acting on two sites. */
struct PauliTerm
{
    enum class Kind : std::uint8_t { XX, YY, ZZ };
    Kind kind;
    QubitId site0;
    QubitId site1;
};

/**
 * Pauli terms of the 2-D Heisenberg model on a width x width square
 * lattice: XX+YY+ZZ on every nearest-neighbor edge, row-major edge order
 * (the spatial-locality structure Sec. III-B observes). L = 6*W*(W-1).
 */
std::vector<PauliTerm> heisenbergTerms(std::int32_t width);

/** Qubit-count bookkeeping for a SELECT instance. */
struct SelectLayout
{
    std::int32_t width = 0;        ///< Heisenberg lattice width W
    std::int64_t numTerms = 0;     ///< L = 6*W*(W-1)
    std::int32_t controlBits = 0;  ///< ceil(log2 L) + 1
    std::int32_t temporalBits = 0; ///< == controlBits
    std::int32_t systemBits = 0;   ///< W*W
    std::int32_t totalQubits = 0;
};

/** Compute the SELECT register layout for lattice width @p width. */
SelectLayout selectLayout(std::int32_t width);

/**
 * Fraction of a SELECT instance's qubits that are control+temporal
 * registers — the "hot" working set the Fig. 15 hybrid layouts pin
 * into the conventional region.
 */
double selectHotFraction(std::int32_t width);

/** Options for SELECT synthesis. */
struct SelectParams
{
    std::int32_t width = 11;  ///< paper Sec. VI-B instance: 143 qubits
    /**
     * Emit only the first @p maxTerms unary-iteration steps (0 = all).
     * Large Fig. 15 instances use a prefix; the iteration is periodic so
     * steady-state CPI converges (DESIGN.md §4.13).
     */
    std::int64_t maxTerms = 0;
    /**
     * Fig. 5d parallelization: fan the control register out into
     * @p controlCopies CX-copies, each walking every controlCopies-th
     * term with its own temporal ladder, exposing Toffoli-depth
     * parallelism at the cost of (copies-1) extra control+temporal
     * registers. 1 = the paper's default serial iteration.
     */
    std::int32_t controlCopies = 1;
};

/**
 * SELECT = sum_i |i><i| (x) P_i over the Heisenberg terms, implemented as
 * sawtooth unary iteration with temporary-AND ladders (Fig. 5): only the
 * trailing AND links are rebuilt between consecutive indices (amortized
 * ~2 Toffolis per term, matching the duplication-removal optimization).
 * Registers: control, temporal, system.
 */
Circuit makeSelect(const SelectParams &params = {});

} // namespace lsqca

#endif // LSQCA_SYNTH_BENCHMARKS_H
