#include "circuit/statevector.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace lsqca {
namespace {

constexpr std::complex<double> kI{0.0, 1.0};

/**
 * Insert a zero bit at the position of @p bit (a power of two): maps a
 * compacted index onto the full index space with that bit clear. The
 * workhorse of every stride-based kernel below — iterating compacted
 * indices visits exactly the relevant amplitudes with no per-index
 * branch.
 */
inline std::uint64_t
insertZeroBit(std::uint64_t value, std::uint64_t bit)
{
    return ((value & ~(bit - 1)) << 1) | (value & (bit - 1));
}

/** insertZeroBit over two distinct bit positions. */
inline std::uint64_t
insertZeroBits2(std::uint64_t value, std::uint64_t lo, std::uint64_t hi)
{
    return insertZeroBit(insertZeroBit(value, lo), hi);
}

/** Order two bit masks ascending. */
inline void
sortBits2(std::uint64_t &a, std::uint64_t &b)
{
    if (a > b)
        std::swap(a, b);
}

/**
 * Complex multiply written out in reals. std::complex's operator* calls
 * the libgcc NaN-recovery routine (__muldc3) per product, which
 * dominates the amplitude kernels; gate matrices and amplitudes are
 * always finite, where this form computes the identical value.
 */
inline std::complex<double>
cmul(std::complex<double> x, std::complex<double> y)
{
    return {x.real() * y.real() - x.imag() * y.imag(),
            x.real() * y.imag() + x.imag() * y.real()};
}

/**
 * Run kernel(a0, a1) over every (clear, set) amplitude pair of @p bit.
 * The kernel is a concrete functor type, so each gate shape compiles
 * to its own specialized loop.
 */
template <typename Kernel>
inline void
sweepPairs(std::complex<double> *amps, std::uint64_t size,
           std::uint64_t bit, Kernel kernel)
{
    const std::uint64_t half = size >> 1;
    for (std::uint64_t g = 0; g < half; ++g) {
        const std::uint64_t base = insertZeroBit(g, bit);
        kernel(amps[base], amps[base | bit]);
    }
}

/** As sweepPairs, but visits only the set-bit amplitudes (phase-type
 *  gates touch half the state). */
template <typename Kernel>
inline void
sweepSetHalf(std::complex<double> *amps, std::uint64_t size,
             std::uint64_t bit, Kernel kernel)
{
    const std::uint64_t half = size >> 1;
    for (std::uint64_t g = 0; g < half; ++g)
        kernel(amps[insertZeroBit(g, bit) | bit]);
}

} // namespace

StateVector::StateVector(std::int32_t num_qubits, std::uint64_t seed)
    : numQubits_(num_qubits), rng_(seed)
{
    LSQCA_REQUIRE(num_qubits > 0, "state vector needs at least one qubit");
    LSQCA_REQUIRE(num_qubits <= kMaxQubits,
                  "state vector capacity exceeded (max " +
                      std::to_string(kMaxQubits) + " qubits)");
    amps_.assign(std::uint64_t{1} << num_qubits, {0.0, 0.0});
    amps_[0] = {1.0, 0.0};
}

std::uint64_t
StateVector::stride(QubitId q) const
{
    LSQCA_REQUIRE(q >= 0 && q < numQubits_, "qubit out of range");
    return std::uint64_t{1} << q;
}

StateVector::Amplitude
StateVector::amplitude(std::uint64_t index) const
{
    LSQCA_REQUIRE(index < amps_.size(), "basis index out of range");
    return amps_[index];
}

double
StateVector::probability(std::uint64_t index) const
{
    return std::norm(amplitude(index));
}

double
StateVector::probabilityOne(QubitId q) const
{
    // Visit only the set-bit half of the space: compacted index g maps
    // to the full index with the qubit bit forced to 1. Half the
    // iterations of the old full scan, and no per-index branch.
    const std::uint64_t bit = stride(q);
    const std::uint64_t half = amps_.size() >> 1;
    const Amplitude *amps = amps_.data();
    double p = 0.0;
    for (std::uint64_t g = 0; g < half; ++g)
        p += std::norm(amps[insertZeroBit(g, bit) | bit]);
    return p;
}

double
StateVector::norm() const
{
    double n = 0.0;
    for (const Amplitude &a : amps_)
        n += std::norm(a);
    return n;
}

double
StateVector::fidelity(const StateVector &other) const
{
    LSQCA_REQUIRE(other.amps_.size() == amps_.size(),
                  "fidelity requires equal qubit counts");
    Amplitude overlap{0.0, 0.0};
    for (std::uint64_t i = 0; i < amps_.size(); ++i)
        overlap += std::conj(other.amps_[i]) * amps_[i];
    return std::norm(overlap);
}

void
StateVector::apply1(QubitId q, const Amplitude m00, const Amplitude m01,
                    const Amplitude m10, const Amplitude m11)
{
    // Compacted index g enumerates the 2^(n-1) amplitude pairs
    // directly (the old loop walked all 2^n indices and skipped half
    // with a data-dependent branch), and the matrix shape dispatches
    // once per call to a kernel specialized for it: every gate in the
    // Clifford+T set is diagonal, anti-diagonal, or real, and the
    // general complex fallback never runs in practice.
    const std::uint64_t bit = stride(q);
    const std::uint64_t size = amps_.size();
    Amplitude *amps = amps_.data();
    constexpr Amplitude kZero{0.0, 0.0};
    constexpr Amplitude kOne{1.0, 0.0};

    if (m01 == kZero && m10 == kZero) {
        if (m00 == kOne) {
            // Phase-type (Z/S/T/...): only the set half changes.
            sweepSetHalf(amps, size, bit,
                         [m11](Amplitude &a) { a = cmul(m11, a); });
        } else {
            sweepPairs(amps, size, bit,
                       [m00, m11](Amplitude &a0, Amplitude &a1) {
                           a0 = cmul(m00, a0);
                           a1 = cmul(m11, a1);
                       });
        }
        return;
    }
    if (m00 == kZero && m11 == kZero) {
        if (m01 == kOne && m10 == kOne) {
            // X: a pure swap, no arithmetic.
            sweepPairs(amps, size, bit,
                       [](Amplitude &a0, Amplitude &a1) {
                           std::swap(a0, a1);
                       });
        } else {
            sweepPairs(amps, size, bit,
                       [m01, m10](Amplitude &a0, Amplitude &a1) {
                           const Amplitude t = cmul(m01, a1);
                           a1 = cmul(m10, a0);
                           a0 = t;
                       });
        }
        return;
    }
    if (m00.imag() == 0.0 && m01.imag() == 0.0 && m10.imag() == 0.0 &&
        m11.imag() == 0.0) {
        // Real dense matrix (H): 8 real multiplies per pair.
        const double r00 = m00.real(), r01 = m01.real();
        const double r10 = m10.real(), r11 = m11.real();
        sweepPairs(amps, size, bit,
                   [r00, r01, r10, r11](Amplitude &a0, Amplitude &a1) {
                       const Amplitude b0{
                           r00 * a0.real() + r01 * a1.real(),
                           r00 * a0.imag() + r01 * a1.imag()};
                       const Amplitude b1{
                           r10 * a0.real() + r11 * a1.real(),
                           r10 * a0.imag() + r11 * a1.imag()};
                       a0 = b0;
                       a1 = b1;
                   });
        return;
    }
    sweepPairs(amps, size, bit,
               [m00, m01, m10, m11](Amplitude &a0, Amplitude &a1) {
                   const Amplitude b0 = cmul(m00, a0) + cmul(m01, a1);
                   const Amplitude b1 = cmul(m10, a0) + cmul(m11, a1);
                   a0 = b0;
                   a1 = b1;
               });
}

void
StateVector::applyX(QubitId q)
{
    apply1(q, 0, 1, 1, 0);
}

void
StateVector::applyY(QubitId q)
{
    apply1(q, 0, -kI, kI, 0);
}

void
StateVector::applyZ(QubitId q)
{
    apply1(q, 1, 0, 0, -1);
}

void
StateVector::applyH(QubitId q)
{
    const double r = 1.0 / std::numbers::sqrt2;
    apply1(q, r, r, r, -r);
}

void
StateVector::applyS(QubitId q)
{
    apply1(q, 1, 0, 0, kI);
}

void
StateVector::applySdg(QubitId q)
{
    apply1(q, 1, 0, 0, -kI);
}

void
StateVector::applyT(QubitId q)
{
    apply1(q, 1, 0, 0, std::polar(1.0, std::numbers::pi / 4));
}

void
StateVector::applyTdg(QubitId q)
{
    apply1(q, 1, 0, 0, std::polar(1.0, -std::numbers::pi / 4));
}

void
StateVector::applyCX(QubitId control, QubitId target)
{
    const std::uint64_t cbit = stride(control);
    const std::uint64_t tbit = stride(target);
    LSQCA_REQUIRE(control != target, "cx operands must differ");
    // Enumerate only the control=1, target=0 quarter of the space.
    std::uint64_t lo = cbit, hi = tbit;
    sortBits2(lo, hi);
    const std::uint64_t quarter = amps_.size() >> 2;
    Amplitude *amps = amps_.data();
    for (std::uint64_t g = 0; g < quarter; ++g) {
        const std::uint64_t i = insertZeroBits2(g, lo, hi) | cbit;
        std::swap(amps[i], amps[i | tbit]);
    }
}

void
StateVector::applyCZ(QubitId a, QubitId b)
{
    const std::uint64_t abit = stride(a);
    const std::uint64_t bbit = stride(b);
    LSQCA_REQUIRE(a != b, "cz operands must differ");
    std::uint64_t lo = abit, hi = bbit;
    sortBits2(lo, hi);
    const std::uint64_t quarter = amps_.size() >> 2;
    Amplitude *amps = amps_.data();
    for (std::uint64_t g = 0; g < quarter; ++g) {
        const std::uint64_t i = insertZeroBits2(g, lo, hi) | abit | bbit;
        amps[i] = -amps[i];
    }
}

void
StateVector::applySwap(QubitId a, QubitId b)
{
    const std::uint64_t abit = stride(a);
    const std::uint64_t bbit = stride(b);
    LSQCA_REQUIRE(a != b, "swap operands must differ");
    std::uint64_t lo = abit, hi = bbit;
    sortBits2(lo, hi);
    const std::uint64_t quarter = amps_.size() >> 2;
    Amplitude *amps = amps_.data();
    for (std::uint64_t g = 0; g < quarter; ++g) {
        const std::uint64_t i = insertZeroBits2(g, lo, hi) | abit;
        std::swap(amps[i], amps[(i & ~abit) | bbit]);
    }
}

void
StateVector::applyCCX(QubitId c0, QubitId c1, QubitId target)
{
    const std::uint64_t b0 = stride(c0);
    const std::uint64_t b1 = stride(c1);
    const std::uint64_t tbit = stride(target);
    LSQCA_REQUIRE(c0 != c1 && c0 != target && c1 != target,
                  "ccx operands must differ");
    // Enumerate only the c0=1, c1=1, target=0 eighth of the space: the
    // compacted index expands over the three operand bits (ascending),
    // then the control bits are forced on.
    std::uint64_t bits[3] = {b0, b1, tbit};
    std::sort(bits, bits + 3);
    const std::uint64_t eighth = amps_.size() >> 3;
    Amplitude *amps = amps_.data();
    const std::uint64_t lo = bits[0], mid = bits[1], hi = bits[2];
    for (std::uint64_t g = 0; g < eighth; ++g) {
        const std::uint64_t i =
            insertZeroBit(insertZeroBits2(g, lo, mid), hi) | b0 | b1;
        std::swap(amps[i], amps[i | tbit]);
    }
}

bool
StateVector::measureZ(QubitId q)
{
    const double p1 = probabilityOne(q);
    const bool outcome = rng_.chance(p1);
    const std::uint64_t bit = stride(q);
    const double keep = outcome ? p1 : 1.0 - p1;
    LSQCA_ASSERT(keep > 1e-12, "measurement of an impossible outcome");
    const double scale = 1.0 / std::sqrt(keep);
    // Collapse without a per-index branch: for each amplitude pair, the
    // kept side scales and the other zeroes; which is which is decided
    // once from the outcome.
    const std::uint64_t keepSide = outcome ? bit : 0;
    const std::uint64_t dropSide = outcome ? 0 : bit;
    const std::uint64_t half = amps_.size() >> 1;
    Amplitude *amps = amps_.data();
    for (std::uint64_t g = 0; g < half; ++g) {
        const std::uint64_t base = insertZeroBit(g, bit);
        amps[base | keepSide] *= scale;
        amps[base | dropSide] = {0.0, 0.0};
    }
    return outcome;
}

bool
StateVector::measureX(QubitId q)
{
    applyH(q);
    const bool outcome = measureZ(q);
    applyH(q);
    return outcome;
}

void
StateVector::resetZ(QubitId q)
{
    if (measureZ(q))
        applyX(q);
}

void
StateVector::resetX(QubitId q)
{
    resetZ(q);
    applyH(q);
}

void
StateVector::applyGate(const Gate &gate, std::vector<std::uint8_t> &bits)
{
    if (gate.condBit != kNoBit) {
        LSQCA_REQUIRE(static_cast<std::size_t>(gate.condBit) < bits.size(),
                      "condition bit not yet written");
        if (!bits[static_cast<std::size_t>(gate.condBit)])
            return;
    }
    const QubitId q0 = gate.qubits[0];
    const QubitId q1 = gate.qubits[1];
    const QubitId q2 = gate.qubits[2];
    switch (gate.kind) {
      case GateKind::X: applyX(q0); break;
      case GateKind::Y: applyY(q0); break;
      case GateKind::Z: applyZ(q0); break;
      case GateKind::H: applyH(q0); break;
      case GateKind::S: applyS(q0); break;
      case GateKind::Sdg: applySdg(q0); break;
      case GateKind::T: applyT(q0); break;
      case GateKind::Tdg: applyTdg(q0); break;
      case GateKind::CX: applyCX(q0, q1); break;
      case GateKind::CZ: applyCZ(q0, q1); break;
      case GateKind::Swap: applySwap(q0, q1); break;
      case GateKind::CCX: applyCCX(q0, q1, q2); break;
      // Macro semantics: AND == CCX on a |0> target; uncompute is the
      // inverse on a target holding a AND b.
      case GateKind::AndInit: applyCCX(q0, q1, q2); break;
      case GateKind::AndUncompute: applyCCX(q0, q1, q2); break;
      case GateKind::PrepZ: resetZ(q0); break;
      case GateKind::PrepX: resetX(q0); break;
      case GateKind::MeasZ: {
        const bool outcome = measureZ(q0);
        if (static_cast<std::size_t>(gate.cbit) >= bits.size())
            bits.resize(static_cast<std::size_t>(gate.cbit) + 1, 0);
        bits[static_cast<std::size_t>(gate.cbit)] = outcome ? 1 : 0;
        break;
      }
      case GateKind::MeasX: {
        const bool outcome = measureX(q0);
        if (static_cast<std::size_t>(gate.cbit) >= bits.size())
            bits.resize(static_cast<std::size_t>(gate.cbit) + 1, 0);
        bits[static_cast<std::size_t>(gate.cbit)] = outcome ? 1 : 0;
        break;
      }
    }
}

StateVectorRun
runStateVector(const Circuit &circuit,
               const std::vector<QubitId> &initial_ones, std::uint64_t seed)
{
    StateVectorRun run{StateVector(circuit.numQubits(), seed), {}};
    run.bits.assign(static_cast<std::size_t>(circuit.numClassicalBits()),
                    0);
    for (QubitId q : initial_ones)
        run.state.applyX(q);
    for (const auto &g : circuit.gates())
        run.state.applyGate(g, run.bits);
    return run;
}

std::vector<bool>
runClassical(const Circuit &circuit, const std::vector<QubitId> &initial_ones,
             const std::vector<QubitId> &outputs, std::uint64_t seed)
{
    auto run = runStateVector(circuit, initial_ones, seed);
    std::vector<bool> result;
    result.reserve(outputs.size());
    for (QubitId q : outputs)
        result.push_back(run.state.measureZ(q));
    return result;
}

} // namespace lsqca
