#ifndef LSQCA_ISA_ASSEMBLER_H
#define LSQCA_ISA_ASSEMBLER_H

/**
 * @file
 * Text assembler for LSQCA programs.
 *
 * Accepts the exact dialect the disassembler emits, so object code can
 * round-trip through text:
 *
 *   ; lsqca program: 9 variables, 15 instructions, 1 magic states
 *   ; register data: m0..m7
 *   HD.M m0
 *   LD m3, c0
 *   MZZ.M c0, m8 -> v1
 *   SK v1
 *   ...
 *
 * Directives: the header comment declares the variable count; register
 * comments declare named ranges. Value slots are allocated implicitly
 * up to the highest index referenced. Indices are decimal: m and v
 * indices and the variable count must fit std::int32_t, and c indices
 * must be below kMaxCrSlots. Unknown mnemonics, malformed operands,
 * and out-of-range indices or references raise ConfigError with the
 * offending line number.
 */

#include <string>

#include "isa/program.h"

namespace lsqca {

/** Parse @p text into a validated Program. @throws ConfigError */
Program assemble(const std::string &text);

} // namespace lsqca

#endif // LSQCA_ISA_ASSEMBLER_H
