#ifndef LSQCA_SIM_OBSERVER_H
#define LSQCA_SIM_OBSERVER_H

/**
 * @file
 * Pluggable simulation telemetry: the `SimObserver` event-stream API.
 *
 * The simulator's hot loop emits typed events — instruction
 * issue/retire with a per-component latency split, magic-state
 * grants, and bank cell occupy/vacate — to zero or more observers
 * attached via SimOptions::observers. With no observer attached the
 * loop compiles to the event-free fast path (templated on an OBSERVE
 * flag), so telemetry costs nothing unless asked for; the
 * `ns_per_instr_null_observer` micro kernel pins the attached-observer
 * overhead.
 *
 * Event stream contract (docs/OBSERVERS.md):
 *  - Events arrive in program order, exactly once, single-threaded
 *    within one simulate() call. Parallel sweeps attach per-job
 *    observers, so streams stay deterministic for any worker count.
 *  - Per instruction: onInstruction first, then that instruction's
 *    onMagic (PM only) and onBankCell events (commit order).
 *  - onSimBegin precedes everything; initial bank placement arrives as
 *    onBankCell events with index -1 / time 0; onSimEnd sees the
 *    finished SimResult.
 *
 * Built-in collectors live in src/sim/collectors/: TraceCollector
 * (the Fig. 8 vectors), StallAttribution (per-opcode counts and beats;
 * SimOptions::recordBreakdown is a shim over it), BankHeatmap,
 * Timeline, and JsonlWriter (the `lsqca trace` exporter).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "geom/coord.h"
#include "geom/grid.h"
#include "isa/instruction.h"

namespace lsqca {

struct SimResult;
class Program;
struct ArchConfig;

/**
 * Per-instruction latency decomposition, in code beats. Components are
 * attributed at the bank-call granularity the machine schedules with:
 *
 *  - load / store:  LD/ST-style bank exits and entries (also the
 *                   round-trip halves of the !inMemoryOps ablation),
 *  - seek:          point-SAM scan travel for in-memory 1q ops,
 *  - pick:          point-SAM drag-to-port for in-memory 2q ops,
 *  - align:         line-SAM gap alignment (1q, 2q, direct surgery),
 *  - surgery:       lattice-surgery merge windows,
 *  - compute:       fixed unitary beats (HD/PH),
 *  - magicStall:    waiting on an empty magic buffer (precedes the PM
 *                   transfer window, i.e. lies before `start`),
 *  - skWait:        SK decoder wait.
 *
 * Components may overlap the [start, end) window boundaries (magic
 * stall) or each other across instructions (dataflow overlap), so they
 * are occupancy sums, not a partition of the critical path.
 */
struct LatencySplit
{
    std::int64_t load = 0;
    std::int64_t store = 0;
    std::int64_t seek = 0;
    std::int64_t pick = 0;
    std::int64_t align = 0;
    std::int64_t surgery = 0;
    std::int64_t compute = 0;
    std::int64_t magicStall = 0;
    std::int64_t skWait = 0;

    /** Memory-motion beats: equals the SimResult::memoryBeats share. */
    std::int64_t
    motionBeats() const
    {
        return load + store + seek + pick + align;
    }

    std::int64_t
    total() const
    {
        return motionBeats() + surgery + compute + magicStall + skWait;
    }

    LatencySplit &
    operator+=(const LatencySplit &other)
    {
        load += other.load;
        store += other.store;
        seek += other.seek;
        pick += other.pick;
        align += other.align;
        surgery += other.surgery;
        compute += other.compute;
        magicStall += other.magicStall;
        skWait += other.skWait;
        return *this;
    }

    bool
    operator==(const LatencySplit &other) const
    {
        return load == other.load && store == other.store &&
               seek == other.seek && pick == other.pick &&
               align == other.align && surgery == other.surgery &&
               compute == other.compute &&
               magicStall == other.magicStall &&
               skWait == other.skWait;
    }
    bool
    operator!=(const LatencySplit &other) const
    {
        return !(*this == other);
    }
};

/** Geometry of one SAM bank, reported at simulation begin. */
struct BankLayout
{
    std::int32_t rows = 0;
    std::int32_t cols = 0;
    /** Qubits dealt to this bank at t = 0. */
    std::int32_t occupancy = 0;
};

/** Start-of-simulation context (borrowed pointers, simulate()-scoped). */
struct SimBeginEvent
{
    const Program *program = nullptr;
    const ArchConfig *arch = nullptr;
    /** Instructions that will be simulated (prefix-truncated size). */
    std::int64_t instructions = 0;
    /** One entry per SAM bank (empty on the conventional machine). */
    std::vector<BankLayout> banks;
};

/** One instruction issued and retired. */
struct InstructionEvent
{
    /** Program-order index. */
    std::int64_t index = 0;
    Instruction inst;
    /** Issue beat (after operand/resource waits resolved). */
    std::int64_t start = 0;
    /** Retire beat. */
    std::int64_t end = 0;
    LatencySplit split;
};

/** One magic state granted to a PM instruction. */
struct MagicEvent
{
    /** The PM instruction's program-order index. */
    std::int64_t index = 0;
    /** Earliest beat the PM could have consumed a state. */
    std::int64_t request = 0;
    /** Beat the state was actually available (request + stall). */
    std::int64_t available = 0;
    /** Beat the state finished transferring into the CR. */
    std::int64_t end = 0;
};

/** A bank cell changing occupancy. */
enum class CellEventKind : std::uint8_t
{
    Occupy,
    Vacate,
};

/** Human-readable cell-event kind ("occupy" / "vacate"). */
const char *cellEventKindName(CellEventKind kind);

struct BankCellEvent
{
    /** Committing instruction's index; -1 for the initial placement. */
    std::int64_t index = -1;
    /** Beat charged: the committing instruction's start (0 initially). */
    std::int64_t time = 0;
    std::int32_t bank = 0;
    QubitId qubit = kNoQubit;
    Coord cell;
    CellEventKind kind = CellEventKind::Occupy;
};

/** End-of-simulation: the finished result (borrowed pointer). */
struct SimEndEvent
{
    const SimResult *result = nullptr;
};

/**
 * Observer interface. Every handler defaults to a no-op, so a plain
 * `SimObserver` instance is the null observer (the micro-kernel
 * overhead probe) and collectors override only what they consume.
 */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    virtual void
    onSimBegin(const SimBeginEvent &)
    {
    }

    virtual void
    onInstruction(const InstructionEvent &)
    {
    }

    virtual void
    onMagic(const MagicEvent &)
    {
    }

    virtual void
    onBankCell(const BankCellEvent &)
    {
    }

    virtual void
    onSimEnd(const SimEndEvent &)
    {
    }
};

/**
 * Per-opcode aggregate of the latency splits: the structured breakdown
 * SimResult carries when SimOptions::recordBreakdown is set (collected
 * by the internal StallAttribution shim; serialized by api/serialize).
 */
struct OpcodeSplit
{
    Opcode op = Opcode::LD;
    /** Instructions of this opcode simulated. */
    std::int64_t count = 0;
    /** Occupied beats: the sum of end - start over those instructions
     *  (durations, not critical path). */
    std::int64_t beats = 0;
    LatencySplit split;

    bool
    operator==(const OpcodeSplit &other) const
    {
        return op == other.op && count == other.count &&
               beats == other.beats && split == other.split;
    }
    bool
    operator!=(const OpcodeSplit &other) const
    {
        return !(*this == other);
    }
};

} // namespace lsqca

#endif // LSQCA_SIM_OBSERVER_H
