#ifndef LSQCA_CIRCUIT_STATEVECTOR_H
#define LSQCA_CIRCUIT_STATEVECTOR_H

/**
 * @file
 * Dense state-vector simulator for functional verification.
 *
 * This is the repository's semantic ground truth: benchmark generators and
 * the measurement-based gadgets (4-T AND, T teleportation) are validated
 * by executing small instances exactly. It supports the full IR gate set,
 * Pauli measurements with collapse, and classically-conditioned gates.
 * Capacity is bounded (kMaxQubits = 24) and every kernel runs serially
 * on the calling thread — it is a test oracle, not part of the
 * architecture model.
 */

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"

namespace lsqca {

/** Dense 2^n-amplitude quantum state with gate application. */
class StateVector
{
  public:
    using Amplitude = std::complex<double>;

    /** Maximum supported qubit count (memory guard; 24 qubits = 256 MiB
     *  of amplitudes — enough for the SELECT control-copy checks). */
    static constexpr int kMaxQubits = 24;

    /** Initialize |0...0>. @pre 0 < num_qubits <= kMaxQubits */
    explicit StateVector(std::int32_t num_qubits,
                         std::uint64_t seed = 0x5eed'0001);

    std::int32_t numQubits() const { return numQubits_; }

    /** Amplitude of computational basis state @p index. */
    Amplitude amplitude(std::uint64_t index) const;

    /** Probability of measuring all qubits as basis state @p index. */
    double probability(std::uint64_t index) const;

    /** Probability that qubit @p q measures 1 in the Z basis. */
    double probabilityOne(QubitId q) const;

    /** Squared norm (should stay 1 within numerical error). */
    double norm() const;

    /**
     * Inner-product fidelity |<other|this>|^2 — used by tests to compare
     * a lowered circuit against its macro-level reference.
     */
    double fidelity(const StateVector &other) const;

    // ---- gate application --------------------------------------------
    void applyX(QubitId q);
    void applyY(QubitId q);
    void applyZ(QubitId q);
    void applyH(QubitId q);
    void applyS(QubitId q);
    void applySdg(QubitId q);
    void applyT(QubitId q);
    void applyTdg(QubitId q);
    void applyCX(QubitId control, QubitId target);
    void applyCZ(QubitId a, QubitId b);
    void applySwap(QubitId a, QubitId b);
    void applyCCX(QubitId c0, QubitId c1, QubitId target);

    /** Measure in Z basis; collapses the state. @return outcome bit. */
    bool measureZ(QubitId q);

    /** Measure in X basis; collapses the state. @return outcome bit. */
    bool measureX(QubitId q);

    /** Reset qubit to |0> (measure + conditional flip). */
    void resetZ(QubitId q);

    /** Reset qubit to |+>. */
    void resetX(QubitId q);

    /**
     * Execute one IR gate, honoring classical condition bits and writing
     * measurement outcomes into @p bits (resized as needed).
     */
    void applyGate(const Gate &gate, std::vector<std::uint8_t> &bits);

  private:
    void apply1(QubitId q, const Amplitude m00, const Amplitude m01,
                const Amplitude m10, const Amplitude m11);
    std::uint64_t stride(QubitId q) const;

    std::int32_t numQubits_;
    std::vector<Amplitude> amps_;
    Rng rng_;
};

/** Result of running a circuit through the state-vector oracle. */
struct StateVectorRun
{
    StateVector state;
    std::vector<std::uint8_t> bits; ///< classical store after execution
};

/**
 * Run @p circuit from |0...0> (optionally X-flipping @p initial_ones
 * first) and return the final state plus classical bits.
 */
StateVectorRun runStateVector(const Circuit &circuit,
                              const std::vector<QubitId> &initial_ones = {},
                              std::uint64_t seed = 0x5eed'0001);

/**
 * Convenience oracle for reversible/arithmetic circuits: run and then
 * Z-measure @p outputs, returning the observed bits (deterministic for
 * classical networks).
 */
std::vector<bool> runClassical(const Circuit &circuit,
                               const std::vector<QubitId> &initial_ones,
                               const std::vector<QubitId> &outputs,
                               std::uint64_t seed = 0x5eed'0001);

} // namespace lsqca

#endif // LSQCA_CIRCUIT_STATEVECTOR_H
