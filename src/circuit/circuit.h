#ifndef LSQCA_CIRCUIT_CIRCUIT_H
#define LSQCA_CIRCUIT_CIRCUIT_H

/**
 * @file
 * Quantum circuit container with named registers and circuit metrics.
 *
 * Registers matter for the paper's analysis: SELECT partitions its qubits
 * into control / temporal / system registers with very different access
 * frequencies (Fig. 8a), and the hybrid floorplan pins hot registers into
 * the conventional region (Sec. VI-C).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/gate.h"

namespace lsqca {

/** A contiguous, named range of qubits within a circuit. */
struct QubitRegister
{
    std::string name;
    QubitId first = 0;
    std::int32_t size = 0;

    bool
    contains(QubitId q) const
    {
        return q >= first && q < first + size;
    }
};

/**
 * An ordered list of gates over `numQubits()` logical qubits and
 * `numClassicalBits()` classical bits, with emit helpers and metrics.
 */
class Circuit
{
  public:
    Circuit() = default;

    /** Create a circuit with one anonymous register of @p num_qubits. */
    explicit Circuit(std::int32_t num_qubits);

    /** Append a named register; returns the index of its first qubit. */
    QubitId addRegister(const std::string &name, std::int32_t size);

    std::int32_t numQubits() const { return numQubits_; }
    std::int32_t numClassicalBits() const { return numBits_; }
    /**
     * Lvalues only: `for (g : makeCircuit().gates())` would iterate a
     * reference into a destroyed temporary, so it does not compile.
     */
    const std::vector<Gate> &gates() const & { return gates_; }
    const std::vector<Gate> &gates() const && = delete;
    const std::vector<QubitRegister> &registers() const { return regs_; }

    /** Register index owning qubit @p q; -1 when q is anonymous. */
    std::int32_t registerOf(QubitId q) const;

    /** Register by name. @pre the register exists. */
    const QubitRegister &reg(const std::string &name) const;

    /** Allocate a fresh classical bit. */
    ClassicalBit newBit();

    /** Append an arbitrary gate (operands validated). */
    void append(const Gate &gate);

    // ---- emit helpers -------------------------------------------------
    void x(QubitId q) { append1(GateKind::X, q); }
    void y(QubitId q) { append1(GateKind::Y, q); }
    void z(QubitId q) { append1(GateKind::Z, q); }
    void h(QubitId q) { append1(GateKind::H, q); }
    void s(QubitId q) { append1(GateKind::S, q); }
    void sdg(QubitId q) { append1(GateKind::Sdg, q); }
    void t(QubitId q) { append1(GateKind::T, q); }
    void tdg(QubitId q) { append1(GateKind::Tdg, q); }
    void prepZ(QubitId q) { append1(GateKind::PrepZ, q); }
    void prepX(QubitId q) { append1(GateKind::PrepX, q); }
    void cx(QubitId control, QubitId target);
    void cz(QubitId a, QubitId b);
    void swap(QubitId a, QubitId b);
    void ccx(QubitId c0, QubitId c1, QubitId target);

    /** Temporary AND: t must be |0>; becomes |c0 AND c1>. Costs 4 T. */
    void andInit(QubitId c0, QubitId c1, QubitId t);

    /** Uncompute a temporary AND (measurement + conditional CZ; 0 T). */
    void andUncompute(QubitId c0, QubitId c1, QubitId t);

    /** Measure in Z basis into a fresh classical bit (returned). */
    ClassicalBit measZ(QubitId q);

    /** Measure in X basis into a fresh classical bit (returned). */
    ClassicalBit measX(QubitId q);

    /** Classically-conditioned single-qubit gate. */
    void appendConditioned(GateKind kind, QubitId q, ClassicalBit cond);

    /** Classically-conditioned CZ (AND uncompute correction). */
    void czConditioned(QubitId a, QubitId b, ClassicalBit cond);

    // ---- metrics ------------------------------------------------------
    /** Number of T/Tdg gates plus 4 per unlowered AndInit/CCX macro. */
    std::int64_t tCount() const;

    /** Number of explicit CCX + AndInit macros still in the circuit. */
    std::int64_t toffoliCount() const;

    /** Gates with two or more qubit operands. */
    std::int64_t twoQubitCount() const;

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(gates_.size());
    }

    /**
     * Dependency depth under a per-gate latency function (classical-bit
     * edges included). Latency 0 gates still order their operands.
     */
    std::int64_t
    depth(const std::function<std::int64_t(const Gate &)> &latency) const;

    /** Unit-latency depth. */
    std::int64_t unitDepth() const;

    /**
     * Per-qubit static reference counts (number of gates touching each
     * qubit) — drives the hybrid floorplan's hot-register selection.
     */
    std::vector<std::int64_t> referenceCounts() const;

  private:
    void append1(GateKind kind, QubitId q);
    void validateQubit(QubitId q) const;

    std::int32_t numQubits_ = 0;
    std::int32_t numBits_ = 0;
    std::vector<Gate> gates_;
    std::vector<QubitRegister> regs_;
};

} // namespace lsqca

#endif // LSQCA_CIRCUIT_CIRCUIT_H
