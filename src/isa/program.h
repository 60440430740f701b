#ifndef LSQCA_ISA_PROGRAM_H
#define LSQCA_ISA_PROGRAM_H

/**
 * @file
 * Container for translated LSQCA programs.
 *
 * A Program is portable object code: it references variables, CR slots,
 * and classical values but never concrete cell positions, so the same
 * Program runs on any point-/line-/hybrid-SAM instance (the paper's
 * program-portability contribution, Sec. VII-B).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.h"

namespace lsqca {

/** A named contiguous variable range (mirrors circuit registers). */
struct VariableRegister
{
    std::string name;
    std::int32_t first = 0;
    std::int32_t size = 0;
};

/**
 * Per-instruction prefix data over a Program, read only by the sampled
 * estimator (src/estimate/): CPI denominators and magic consumption
 * over any span without re-walking it, and the skip-list its
 * fast-forward path walks instead of the whole code vector. It costs
 * about 16 B per instruction plus 8 B per memory op, so the exact
 * simulator never builds it (see Program::prefixExtent()).
 */
struct StreamIndex
{
    /** countedPrefix[i] = counted (non-LD/ST) instructions in [0, i). */
    std::vector<std::int64_t> countedPrefix;
    /** pmPrefix[i] = PM instructions in [0, i). */
    std::vector<std::int64_t> pmPrefix;
    /**
     * Ascending indices of instructions with a memory operand or PM —
     * the only opcodes that can change functional machine state.
     */
    std::vector<std::int64_t> memOps;
};

/**
 * Where lanes of a shared bank walk (simulateLanes()) keep each
 * classical value's ready time. Values whose access spans (first to
 * last instruction naming them) overlap never share a slot, and a
 * value first named by a read (SK, the only opcode that reads its
 * value; every other one writes it) gets a slot no earlier value used,
 * so it reads 0 until written. Translated programs write each value
 * once, shortly before the SK that reads it, so a few slots serve a
 * million values and each lane keeps a few ready times instead of one
 * per value. A solo simulate() indexes by value id and only sizes its
 * table from slotOf.
 */
struct ValueSlots
{
    /** slotOf[v] for every value id v up to the highest named. */
    std::vector<std::int32_t> slotOf;
    /** Slots handed out: the size of a ready-time table. */
    std::int32_t count = 0;
};

/** What the simulator sizes its timelines from, over a prefix. */
struct PrefixExtent
{
    /** Highest CR slot the prefix references; -1 if none. */
    std::int32_t maxSlot = -1;
    /** Value slots for the values the prefix names. */
    std::shared_ptr<const ValueSlots> values;
};

/** An LSQCA instruction sequence plus symbol-table metadata. */
class Program
{
  public:
    Program() = default;

    /** Create a program over @p num_variables memory variables. */
    explicit Program(std::int32_t num_variables);

    std::int32_t numVariables() const { return numVariables_; }
    std::int32_t numValues() const { return numValues_; }
    /**
     * Lvalues only, as Circuit::gates(): a range-for over a
     * temporary's member would iterate a destroyed vector.
     */
    const std::vector<Instruction> &instructions() const & { return code_; }
    const std::vector<Instruction> &instructions() const && = delete;
    const std::vector<VariableRegister> &registers() const &
    {
        return regs_;
    }
    const std::vector<VariableRegister> &registers() const && = delete;

    /** Declare a named variable register (metadata only). */
    void addRegister(const std::string &name, std::int32_t first,
                     std::int32_t size);

    /** Register index owning variable @p m; -1 if anonymous. */
    std::int32_t registerOf(std::int32_t m) const;

    /** Allocate a fresh classical value slot. */
    std::int32_t newValue() { return numValues_++; }

    /** Append a validated instruction. */
    void append(const Instruction &inst);

    /** Allocate room for @p instructions in total (no effect on size()). */
    void
    reserve(std::int64_t instructions)
    {
        code_.reserve(static_cast<std::size_t>(instructions));
    }

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(code_.size());
    }

    /**
     * Number of instructions counted in CPI denominators: logical
     * commands excluding LD/ST traffic, so CPI ratios between
     * architectures equal execution-time ratios (see DESIGN.md §4.11).
     */
    std::int64_t countedInstructions() const;

    /** Number of PM instructions == magic states consumed. */
    std::int64_t magicCount() const;

    /**
     * Per-variable static reference counts over memory operands.
     * Cached after the first call: every hybrid sweep job over a
     * shared program asks for the same counts, and the O(program)
     * scan dominated fig14's wall-clock when repeated per job.
     * Thread-safe — concurrent first calls may each compute, but they
     * store identical vectors.
     */
    std::vector<std::int64_t> referenceCounts() const;

    /**
     * Extent of [0, @p limit) (@p limit clamped to [0, size()]); the
     * simulator sizes its timelines from it. Memoized per limit with
     * the same contract as referenceCounts(): a sweep runs every job
     * of a program at one prefix, so only the first job at each limit
     * scans the stream.
     */
    PrefixExtent prefixExtent(std::int64_t limit) const;

    /**
     * The sampled estimator's prefix-sum / memory-op index, memoized
     * with the same contract as referenceCounts(): computed on first
     * call, invalidated by append(), safe under concurrent readers.
     */
    std::shared_ptr<const StreamIndex> streamIndex() const;

    /** Multi-line disassembly (capped at @p max_lines, 0 = all). */
    std::string disassemble(std::size_t max_lines = 0) const;

  private:
    std::int32_t numVariables_ = 0;
    std::int32_t numValues_ = 0;
    std::vector<Instruction> code_;
    std::vector<VariableRegister> regs_;
    /** referenceCounts() memo; reset by append(). */
    mutable std::shared_ptr<const std::vector<std::int64_t>> refCounts_;
    /** prefixExtent() memo keyed by limit, copy-on-write; reset by
     *  append(). */
    mutable std::shared_ptr<const std::map<std::int64_t, PrefixExtent>>
        prefixExtents_;
    /** streamIndex() memo; reset by append(). */
    mutable std::shared_ptr<const StreamIndex> streamIndex_;
};

} // namespace lsqca

#endif // LSQCA_ISA_PROGRAM_H
