#include "circuit/lowering.h"

namespace lsqca {

Circuit
lowerToCliffordT(const Circuit &circuit, ToffoliStyle style)
{
    const LoweringPlan plan = planLowering(
        circuit, style, [](const Gate &) { return std::int64_t{1}; });
    Circuit out;
    for (const auto &r : circuit.registers())
        out.addRegister(r.name, r.size);
    if (plan.ancilla != kNoQubit)
        out.addRegister(kCcxAncillaRegister, 1);

    // Classical bits of the source circuit are re-created up front so that
    // source cbit indices stay valid; gadget-internal bits follow after.
    for (std::int32_t i = 0; i < circuit.numClassicalBits(); ++i)
        out.newBit();

    out.reserve(plan.weight);
    for (const auto &g : circuit.gates())
        lowerGate(g, style, plan.ancilla, out);

    LSQCA_ASSERT(out.size() == plan.weight &&
                     out.numClassicalBits() == plan.numBits,
                 "planLowering() disagrees with lowerGate()");
    for (const auto &g : out.gates())
        LSQCA_ASSERT(isCliffordTGate(g.kind),
                     "lowering left a non-Clifford+T gate behind");
    return out;
}

} // namespace lsqca
