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
     * Virtual CR slots to round-robin magic states over, in
     * [2, kMaxCrSlots] (isa/instruction.h). A
     * translation-time schedule knob: it spreads consecutive
     * T-gadgets across CR names so independent gadgets can overlap.
     * The simulator serializes on slot names, so values beyond the
     * paper's two CR cells model an optimistic wider CR.
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
 * numValues(). @throws ConfigError where either of those would, also
 * on gates past @p maxInstructions.
 *
 * A positive @p maxInstructions builds only a prefix: emission stops
 * at the first macro-gate boundary at or after that many instructions
 * (or at the end, if the program is shorter), so size() exceeds the
 * limit by less than the last gate's expansion. The instructions are
 * the full build's first size(), with the same registers and
 * numVariables(); numValues() keeps every classical bit of the lowered
 * circuit but only the T-gadget values the prefix names.
 * referenceCounts() are the whole translation's, tallied by the
 * counting pass that expands every gate anyway, so hybrid placement
 * ranks variables as over the full build. 0 (or less) builds the whole
 * program by the same path, without the tally: its code holds every
 * reference.
 */
Program lowerAndTranslate(const Circuit &circuit,
                          const TranslateOptions &options = {},
                          ToffoliStyle style = ToffoliStyle::Textbook7T,
                          std::int64_t maxInstructions = 0);

} // namespace lsqca

#endif // LSQCA_TRANSLATE_TRANSLATE_H
