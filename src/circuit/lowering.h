#ifndef LSQCA_CIRCUIT_LOWERING_H
#define LSQCA_CIRCUIT_LOWERING_H

/**
 * @file
 * Lowering from the macro gate set (Swap, CCX, AndInit/AndUncompute) to
 * the Clifford+T set the LSQCA translator consumes (Sec. VI-A: "each
 * benchmark program is decomposed into Clifford operations, T gates, and
 * single-qubit Pauli measurements").
 *
 * The rules are one per-gate expansion, lowerGate(), written against
 * Circuit's emit helpers and inlined into both of its users:
 * lowerToCliffordT() expands into a Circuit, and lowerAndTranslate()
 * (translate/translate.h) expands straight into the instruction
 * emitter, so a program build never materializes the lowered circuit.
 */

#include <cstddef>
#include <cstdint>
#include <limits>

#include "circuit/circuit.h"
#include "common/error.h"

namespace lsqca {

/**
 * How *bare* CCX gates are decomposed. Explicit AndInit/AndUncompute
 * macros always lower to the 4-T temporary-AND gadget in place (they are
 * the generator's deliberate choice and add no ancilla), matching the
 * paper's note that SELECT Toffolis decompose into fewer T gates.
 */
enum class ToffoliStyle
{
    /** Canonical 7-T, ancilla-free CCX network (default: preserves the
     *  paper's register-file sizes exactly). */
    Textbook7T,
    /** 4-T temporary-AND gadget via one appended, reused ancilla. */
    TemporaryAnd4T,
};

/** True when @p kind may appear in a lowered (Clifford+T) circuit. */
constexpr bool
isCliffordTGate(GateKind kind)
{
    switch (kind) {
      case GateKind::X: case GateKind::Y: case GateKind::Z:
      case GateKind::H: case GateKind::S: case GateKind::Sdg:
      case GateKind::CX: case GateKind::CZ:
      case GateKind::T: case GateKind::Tdg:
      case GateKind::PrepZ: case GateKind::PrepX:
      case GateKind::MeasZ: case GateKind::MeasX:
        return true;
      case GateKind::Swap: case GateKind::CCX:
      case GateKind::AndInit: case GateKind::AndUncompute:
        return false;
    }
    return false;
}

/** The one-qubit register TemporaryAnd4T appends for its ancilla. */
inline constexpr const char *kCcxAncillaRegister = "ccx_anc";

/**
 * Circuit's emit helpers, for lowering sinks other than Circuit itself.
 * Derived supplies `void append(const Gate &)` and
 * `ClassicalBit newBit()`; lowerGate() calls nothing else.
 */
template <typename Derived>
class GateSink
{
  public:
    void h(QubitId q) { one(GateKind::H, q); }
    void s(QubitId q) { one(GateKind::S, q); }
    void t(QubitId q) { one(GateKind::T, q); }
    void tdg(QubitId q) { one(GateKind::Tdg, q); }
    void prepZ(QubitId q) { one(GateKind::PrepZ, q); }
    void prepX(QubitId q) { one(GateKind::PrepX, q); }
    void cx(QubitId control, QubitId target)
    {
        two(GateKind::CX, control, target, kNoBit);
    }
    void czConditioned(QubitId a, QubitId b, ClassicalBit cond)
    {
        two(GateKind::CZ, a, b, cond);
    }

    ClassicalBit
    measX(QubitId q)
    {
        Gate g;
        g.kind = GateKind::MeasX;
        g.qubits[0] = q;
        g.cbit = self().newBit();
        self().append(g);
        return g.cbit;
    }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }

    void
    one(GateKind kind, QubitId q)
    {
        Gate g;
        g.kind = kind;
        g.qubits[0] = q;
        self().append(g);
    }

    void
    two(GateKind kind, QubitId a, QubitId b, ClassicalBit cond)
    {
        Gate g;
        g.kind = kind;
        g.qubits[0] = a;
        g.qubits[1] = b;
        g.condBit = cond;
        self().append(g);
    }
};

namespace detail {

/** Emit the canonical 7-T Toffoli network onto @p out. */
template <typename Sink>
inline void
emitCcx7T(Sink &out, QubitId a, QubitId b, QubitId c)
{
    out.h(c);
    out.cx(b, c);
    out.tdg(c);
    out.cx(a, c);
    out.t(c);
    out.cx(b, c);
    out.tdg(c);
    out.cx(a, c);
    out.t(b);
    out.t(c);
    out.h(c);
    out.cx(a, b);
    out.t(a);
    out.tdg(b);
    out.cx(a, b);
}

/**
 * Emit the 4-T temporary-AND gadget: |a,b,0> -> |a,b,a AND b>.
 *
 * The target is re-prepared in |+>, accumulates the controlled phase via
 * four T/Tdg interleaved with CX from the controls, and H+S converts the
 * phase kickback into a computational AND with no residual phase (see
 * tests/circuit/lowering_test.cpp for the exact-state check).
 */
template <typename Sink>
inline void
emitAnd4T(Sink &out, QubitId a, QubitId b, QubitId t)
{
    out.prepX(t);
    out.cx(b, t);
    out.tdg(t);
    out.cx(a, t);
    out.t(t);
    out.cx(b, t);
    out.tdg(t);
    out.cx(a, t);
    out.t(t);
    out.h(t);
    out.s(t);
}

/** Emit the measurement-based AND uncompute: MX + conditional CZ. */
template <typename Sink>
inline void
emitUnAnd(Sink &out, QubitId a, QubitId b, QubitId t)
{
    const ClassicalBit outcome = out.measX(t);
    out.czConditioned(a, b, outcome);
    // Leave the ancilla in a fresh |0> for reuse.
    out.prepZ(t);
}

} // namespace detail

/**
 * Expand gate @p g of a macro circuit onto @p out, a Circuit or a
 * GateSink. Swap becomes three CX. Bare CCX follows @p style; the
 * TemporaryAnd4T gadget borrows qubit @p ancilla (LoweringPlan::ancilla).
 * AndInit lowers to the 4-T gadget (four T/Tdg on the target, four CX,
 * H, S); AndUncompute lowers to MX plus a classically-conditioned CZ,
 * whose outcome bit comes from out.newBit(). Every other gate passes
 * through unchanged.
 *
 * @throws ConfigError for a classically-conditioned Swap, CCX or AND.
 */
template <typename Sink>
inline void
lowerGate(const Gate &g, ToffoliStyle style, QubitId ancilla, Sink &out)
{
    switch (g.kind) {
      case GateKind::Swap:
        LSQCA_REQUIRE(g.condBit == kNoBit,
                      "conditioned swap is not supported");
        out.cx(g.qubits[0], g.qubits[1]);
        out.cx(g.qubits[1], g.qubits[0]);
        out.cx(g.qubits[0], g.qubits[1]);
        return;
      case GateKind::CCX:
        LSQCA_REQUIRE(g.condBit == kNoBit,
                      "conditioned ccx is not supported");
        if (style == ToffoliStyle::Textbook7T) {
            detail::emitCcx7T(out, g.qubits[0], g.qubits[1], g.qubits[2]);
        } else {
            detail::emitAnd4T(out, g.qubits[0], g.qubits[1], ancilla);
            out.cx(ancilla, g.qubits[2]);
            detail::emitUnAnd(out, g.qubits[0], g.qubits[1], ancilla);
        }
        return;
      case GateKind::AndInit:
        // Explicit ANDs always use the 4-T gadget (no ancilla cost).
        LSQCA_REQUIRE(g.condBit == kNoBit,
                      "conditioned and is not supported");
        detail::emitAnd4T(out, g.qubits[0], g.qubits[1], g.qubits[2]);
        return;
      case GateKind::AndUncompute:
        LSQCA_REQUIRE(g.condBit == kNoBit,
                      "conditioned unand is not supported");
        detail::emitUnAnd(out, g.qubits[0], g.qubits[1], g.qubits[2]);
        return;
      default:
        out.append(g);
        return;
    }
}

/**
 * The leading source gates a build expands: the first `gates`, whose
 * expansions weigh `weight` in all and end with `numBits` classical
 * bits numbered.
 */
struct LoweringPrefix
{
    std::size_t gates = 0;
    std::int64_t weight = 0;
    std::int32_t numBits = 0;
};

/**
 * What lowering a circuit adds, settled by one counting pass before
 * anything is emitted: a builder sizes its output from it and numbers
 * its classical values after every un-AND outcome.
 */
struct LoweringPlan
{
    /** Sum of the caller's per-gate weight over the expanded gates. */
    std::int64_t weight = 0;
    /** Classical bits after lowering: the source's, then un-AND outcomes. */
    std::int32_t numBits = 0;
    /**
     * The appended kCcxAncillaRegister qubit (the source's qubit
     * count), or kNoQubit when no TemporaryAnd4T CCX needs it.
     */
    QubitId ancilla = kNoQubit;
    /**
     * Where a build stops: at the first source-gate boundary where the
     * weight reaches planLowering()'s limit, or after the last gate.
     * weight, numBits and ancilla always describe the whole circuit.
     */
    LoweringPrefix prefix;
};

/**
 * Plan lowering @p circuit in @p style: run every expansion once into a
 * counter that adds @p weight(g) per expanded gate g. The plan's prefix
 * ends at the first source-gate boundary where the weight reaches
 * @p limit (0 = no limit: the whole circuit).
 *
 * @throws ConfigError as lowerGate() does, or when the ancilla register
 *     is needed and @p circuit already has one by that name.
 */
template <typename Weight>
LoweringPlan
planLowering(const Circuit &circuit, ToffoliStyle style, Weight weight,
             std::int64_t limit = 0)
{
    struct Counter : GateSink<Counter>
    {
        Weight &weight;
        LoweringPlan &plan;

        Counter(Weight &w, LoweringPlan &p) : weight(w), plan(p) {}
        void append(const Gate &g) { plan.weight += weight(g); }
        ClassicalBit newBit() { return plan.numBits++; }
    };
    LoweringPlan plan;
    plan.numBits = circuit.numClassicalBits();
    plan.prefix.numBits = plan.numBits;
    const std::int64_t stop =
        limit > 0 ? limit : std::numeric_limits<std::int64_t>::max();
    const QubitId ancilla = circuit.numQubits();
    Counter counter(weight, plan);
    for (const Gate &g : circuit.gates()) {
        if (g.kind == GateKind::CCX && style == ToffoliStyle::TemporaryAnd4T)
            plan.ancilla = ancilla;
        lowerGate(g, style, ancilla, counter);
        if (plan.prefix.weight < stop)
            plan.prefix = {plan.prefix.gates + 1, plan.weight,
                           plan.numBits};
    }
    if (plan.ancilla != kNoQubit)
        for (const QubitRegister &r : circuit.registers())
            LSQCA_REQUIRE(r.name != kCcxAncillaRegister,
                          std::string("duplicate register name: ") +
                              kCcxAncillaRegister);
    return plan;
}

/**
 * Lower @p circuit to the Clifford+T gate set (lowerGate() per gate).
 * Registers are preserved; in TemporaryAnd4T style one extra
 * kCcxAncillaRegister register is appended when the input contains bare
 * CCX gates.
 *
 * @return a circuit for which every gate satisfies isCliffordTGate().
 */
Circuit lowerToCliffordT(const Circuit &circuit,
                         ToffoliStyle style = ToffoliStyle::Textbook7T);

} // namespace lsqca

#endif // LSQCA_CIRCUIT_LOWERING_H
