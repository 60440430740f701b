#ifndef LSQCA_ISA_INSTRUCTION_H
#define LSQCA_ISA_INSTRUCTION_H

/**
 * @file
 * The LSQCA instruction set (paper Table I).
 *
 * Operand model: memory operands (M) are *program variables*; the SAM
 * controller owns the variable -> cell mapping, which is what makes
 * LSQCA object code portable across floorplan instances (Sec. VII-B).
 * Register operands (C) name CR slots. Value operands (V) name classical
 * outcome slots.
 */

#include <cstdint>
#include <string>

namespace lsqca {

/** LSQCA opcodes, grouped exactly as in Table I. */
enum class Opcode : std::uint8_t
{
    // Memory.
    LD,     ///< Load logical qubit from SAM to CR (variable latency).
    ST,     ///< Store logical qubit from CR to SAM (variable latency).
    // Preparation (in CR).
    PZ_C,   ///< Initialize a CR qubit to |0> (0 beats).
    PP_C,   ///< Initialize a CR qubit to |+> (0 beats).
    PM,     ///< Move a magic state from the MSF to CR (variable).
    // Unitary (in CR).
    HD_C,   ///< Hadamard (3 beats).
    PH_C,   ///< Phase gate (2 beats).
    // Measurement (in CR).
    MX_C,   ///< Pauli-X measurement (0 beats).
    MZ_C,   ///< Pauli-Z measurement (0 beats).
    MXX_C,  ///< Two-qubit XX measurement (1 beat).
    MZZ_C,  ///< Two-qubit ZZ measurement (1 beat).
    // Control.
    SK,     ///< Skip next instruction when value is zero (variable).
    // In-memory preparation.
    PZ_M,
    PP_M,
    // In-memory unitary (variable: scan seek + op).
    HD_M,
    PH_M,
    // In-memory measurement.
    MX_M,
    MZ_M,
    MXX_M,  ///< XX measurement between a CR qubit and a memory qubit.
    MZZ_M,  ///< ZZ measurement between a CR qubit and a memory qubit.
    // Optimized unitary (runtime-scheduled operand placement, Sec. VI-A).
    CX,     ///< CNOT between two memory qubits.
    CZ,     ///< CZ between two memory qubits (same machinery as CX).
};

/** Number of distinct opcodes (for tables indexed by opcode). */
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::CZ) + 1;

/** Coarse instruction classes from the "Type" column of Table I. */
enum class OpClass : std::uint8_t
{
    Memory,
    Preparation,
    Unitary,
    Measurement,
    Control,
    InMemoryPreparation,
    InMemoryUnitary,
    InMemoryMeasurement,
    OptimizedUnitary,
};

/** Sentinel latency for variable-latency opcodes. */
inline constexpr std::int32_t kVariableLatency = -1;

/** Static operand/latency metadata for one opcode. */
struct OpcodeInfo
{
    const char *mnemonic;   ///< Table I syntax name, e.g. "MZZ.M".
    OpClass cls;            ///< Table I type.
    std::int32_t latency;   ///< Fixed beats, or kVariableLatency.
    std::int8_t numMem;     ///< M operands.
    std::int8_t numReg;     ///< C operands.
    std::int8_t numVal;     ///< V operands.
};

/** Metadata for @p op (total function over the enum). */
const OpcodeInfo &opcodeInfo(Opcode op);

/** Table I mnemonic for @p op. */
inline const char *
mnemonic(Opcode op)
{
    return opcodeInfo(op).mnemonic;
}

/** Inverse of mnemonic(). @throws ConfigError on unknown names. */
Opcode opcodeFromMnemonic(const std::string &name);

/**
 * CR slots a program may name: indices 0 .. kMaxCrSlots - 1, which fit
 * Instruction's signed-byte register operands beside the -1 sentinel.
 * The Computational Register is small by design (the paper fixes two
 * cells; translation round-robins over TranslateOptions::crSlots), so
 * the cap costs no real program anything. Translation (including
 * cr_slots read from a spec) and the assembler check it before they
 * narrow a slot index.
 */
inline constexpr std::int32_t kMaxCrSlots = 128;

/**
 * One decoded LSQCA instruction.
 *
 * Unused operand slots stay -1. Field use per opcode follows Table I:
 * e.g. LD uses (m0, c0); ST uses (c0, m0); MZZ.M uses (c0, m0, v0);
 * CX uses (m0, m1); SK uses (v0).
 *
 * Layout: 16 bytes. The opcode and the two CR slots (below
 * kMaxCrSlots) take one byte each, beside three 32-bit variable and
 * value operands. Long sweeps keep millions of instructions resident
 * (fig15 --full's five SELECT programs hold 8.7M), so each byte here
 * is megabytes of peak memory; 32-bit CR slots would pad the record
 * to 24 bytes. m1 and v0 stay apart although no opcode uses both, so
 * scans that test an operand against -1 (prefix extents, the trace
 * writer) need no opcode-table lookup to know which field it is.
 */
struct Instruction
{
    Opcode op = Opcode::LD;
    std::int8_t c0 = -1;   ///< First CR slot.
    std::int8_t c1 = -1;   ///< Second CR slot.
    std::int32_t m0 = -1;  ///< First memory variable.
    std::int32_t m1 = -1;  ///< Second memory variable.
    std::int32_t v0 = -1;  ///< Classical value slot.

    /** Assembly-style rendering, e.g. "MZZ.M c0, m17 -> v3". */
    std::string str() const;
};

} // namespace lsqca

#endif // LSQCA_ISA_INSTRUCTION_H
