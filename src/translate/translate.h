#ifndef LSQCA_TRANSLATE_TRANSLATE_H
#define LSQCA_TRANSLATE_TRANSLATE_H

/**
 * @file
 * Compilation from Clifford+T circuits to LSQCA object code (Sec. VI-A).
 *
 * Lowering rules:
 *  - Pauli unitaries (X/Y/Z) are absorbed into the Pauli frame and emit
 *    nothing ("we ignore instructions with negligible latency").
 *  - Single-qubit gates use in-memory instructions (HD.M / PH.M /
 *    PZ.M / PP.M / MX.M / MZ.M).
 *  - T / Tdg become the teleportation gadget:
 *    PM, MZZ.M (magic x target, in-memory), MX.C, SK, PH.M.
 *  - CX / CZ become the optimized two-memory-operand instructions whose
 *    operand placement the machine schedules at run time.
 *  - Classically-conditioned gates are guarded by SK.
 *
 * The emitted Program never references cell positions: it is portable
 * across every SAM instance (Sec. VII-B).
 */

#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "isa/program.h"

namespace lsqca {

/**
 * Translation options. Like SimOptions (sim/simulator.h), this is a
 * plain options struct with JSON round-trip support in
 * api/serialize.*; sweep specs patch it per axis (docs/SPEC.md).
 */
struct TranslateOptions
{
    /**
     * Emit in-memory instruction forms (paper default). When false,
     * every gate is bracketed by explicit LD/ST — the Sec. V-C
     * ablation (pair with ArchConfig::inMemoryOps = false so the
     * machine costs the round trips it is given).
     */
    bool inMemoryOps = true;

    /**
     * Virtual CR slots to round-robin magic states over (>= 2). A
     * translation-time schedule knob: it spreads consecutive
     * T-gadgets across CR names so independent gadgets can overlap.
     * Distinct from ArchConfig::crRegisters, the *machine's* CR cell
     * count (the paper fixes 2) — the simulator serializes on slot
     * names, so values beyond crRegisters model an optimistic wider
     * CR.
     */
    std::int32_t crSlots = 2;
};

/**
 * Translate a lowered (Clifford+T) circuit into an LSQCA program.
 * Registers and classical bits map index-for-index onto variables and
 * values. @throws ConfigError if the circuit has non-Clifford+T gates.
 */
Program translate(const Circuit &circuit,
                  const TranslateOptions &options = {});

/**
 * Lower a macro circuit and translate it in one pass: every gate is
 * expanded by lowerGate() straight into the emitter, so the lowered
 * circuit is never built. Equal to
 * `translate(lowerToCliffordT(circuit, style), options)` instruction
 * for instruction, with the same registers, numVariables() and
 * numValues(). @throws ConfigError where either of those would.
 */
Program lowerAndTranslate(const Circuit &circuit,
                          const TranslateOptions &options = {},
                          ToffoliStyle style = ToffoliStyle::Textbook7T);

} // namespace lsqca

#endif // LSQCA_TRANSLATE_TRANSLATE_H
