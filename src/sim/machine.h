#ifndef LSQCA_SIM_MACHINE_H
#define LSQCA_SIM_MACHINE_H

/**
 * @file
 * The simulator's machine model, as an internal header.
 *
 * `detail::Machine` used to live in simulator.cpp's anonymous
 * namespace; it moved here so the sampled estimator (src/estimate/)
 * and the functional-warming differential harness (tests/estimate/)
 * can drive the *same* machine the exact simulator runs — same bank
 * models, same issue logic, same template specializations — instead
 * of a parallel implementation that could drift.
 *
 * Two execution modes share the instance:
 *
 *  - executeOne(): full detailed execution of one instruction —
 *    dataflow timing, bank cost+commit, magic acquisition. This is
 *    what run() calls in a loop; calling it yourself yields exactly
 *    the exact simulator, one step at a time.
 *
 *  - fastForwardOne(): functional execution only. Bank grids, gap /
 *    scan positions, and the PM counter advance exactly as the
 *    detailed path would move them; no timelines, no beat
 *    accounting, no magic-buffer interaction. O(commit) per
 *    instruction, and ffRelevant() identifies the (typically small)
 *    subset of instructions that have any functional effect at all.
 *
 * The single deliberate divergence is the line-SAM row-parallel
 * window (Sec. V-C): the detailed path may execute a second H/S in a
 * shared gap-row window *without* re-aligning the gap, a decision
 * that depends on issue timing, which the functional path does not
 * track. fastForwardOne() always commits the align (a no-op when the
 * gap is already adjacent). State can therefore diverge from exact
 * only under `row_parallel_ops` on line SAM; the differential
 * harness pins bit-identity for every other configuration, and the
 * sampled estimator covers this approximation statistically (see
 * docs/SAMPLING.md).
 *
 * Lanes. SAM jobs that differ only in magic-state supply walk the same
 * banks: every load/store/seek/align/fetch cost depends on the
 * instruction stream alone. So one machine runs a whole lane group: it
 * decodes each instruction, resolves its region and bank, and costs
 * and commits it against its banks once; only the timing arithmetic
 * loops over the lanes (eachLane()). Every timeline keeps one entry
 * per lane, lane-minor (entry e of lane l at index e * lanes + l): the
 * ready times per variable, value slot, CR slot and scan cell, and each
 * lane's SK barrier, row-parallel window, MagicSource, per-opcode beats
 * and execBeats. The row-parallel window is the one bank decision that
 * reads timing, so it is the lane vote: lane 0's vote drives the banks,
 * and a lane that votes otherwise is marked diverged(); its runner
 * re-simulates it alone (simulateLanes()). A solo machine (simulate(),
 * the estimator) is the one-lane instantiation of the same exec paths:
 * LANES = 1 folds every lane loop and stride away, and indexes value
 * ready times by value id instead of by slot (valueRow()).
 *
 * This header is internal: nothing outside src/sim, src/estimate, the
 * test tree, and the micro-kernel bench should include it.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "arch/line_sam.h"
#include "arch/msf.h"
#include "arch/point_sam.h"
#include "common/error.h"
#include "sim/simulator.h"

namespace lsqca::detail {

/** Where a program variable lives. */
enum class Region : std::uint8_t { Sam, Conventional };

/**
 * max over issue-time operands. The exec paths used
 * std::max(initializer_list) here; once the OBSERVE axis doubled the
 * Machine instantiations, GCC's unit-growth budget stopped inlining
 * that overload and every handler paid an out-of-line call per
 * instruction (+50% on the conventional CX handler). A plain variadic
 * always inlines.
 */
inline std::int64_t
maxOf(std::int64_t a, std::int64_t b)
{
    return b > a ? b : a;
}

template <typename... Rest>
inline std::int64_t
maxOf(std::int64_t a, std::int64_t b, Rest... rest)
{
    return maxOf(maxOf(a, b), rest...);
}

/** LANES for a machine whose lane count is set at run time. */
inline constexpr std::int32_t kAnyLanes = 0;

/**
 * The machine: bank state + resource timelines + in-order dataflow
 * issue. One instance per simulate() call, or per lane group.
 *
 * Templated on the floorplan kind so the per-instruction bank dispatch
 * (point vs line vs conventional) resolves at compile time: the hot
 * loop runs with no `cfg_.sam` branches, one concrete bank type, and
 * the conventional machine compiles to the pure-timeline fast path.
 *
 * The telemetry layer follows the same discipline: the loop and every
 * exec path are additionally templated on an OBSERVE flag, so the
 * no-observer instantiation carries no event construction, no latency
 * split bookkeeping, and no bank hooks — it compiles to the plain
 * simulator (the `ns_per_instr_null_observer` micro kernel tracks the
 * observed path's cost).
 *
 * LANES is the number of lanes sharing the bank walk (file comment,
 * "Lanes"): 1 for a solo machine, or kAnyLanes for a count set at
 * construction. Only solo machines are observed.
 */
template <SamKind KIND, bool OBSERVE, std::int32_t LANES = 1>
class Machine
{
    static_assert(LANES >= 0, "LANES is a lane count or kAnyLanes");
    static_assert(!OBSERVE || LANES == 1, "lanes are unobserved");

    /** Concrete bank model for this specialization (unused for the
     *  conventional machine, where no variable is SAM-resident). */
    using Bank = std::conditional_t<KIND == SamKind::Line, LineSamBank,
                                    PointSamBank>;

    /** @p PER values per lane, lane-minor: a fixed array once LANES is
     *  known, so a solo machine keeps them as plain members. */
    template <typename T, std::size_t PER = 1>
    using PerLane =
        std::conditional_t<LANES == kAnyLanes, std::vector<T>,
                           std::array<T, PER * static_cast<std::size_t>(
                                                   LANES)>>;

  public:
    /** A solo machine running @p opts. */
    Machine(const Program &prog, const SimOptions &opts)
        : Machine(prog, &opts, 1)
    {
    }

    /**
     * One lane per entry of @p lanes[0, @p count): exactly LANES of
     * them, or any positive number under kAnyLanes. Every lane must
     * share the first's bank walk (sharesBankWalk()); the first lane's
     * options configure the banks.
     */
    Machine(const Program &prog, const SimOptions *lanes,
            std::size_t count)
        : prog_(prog), opts_(lanes[0]), cfg_(opts_.arch),
          lanes_(count)
    {
        LSQCA_ASSERT(count >= 1 && (LANES == kAnyLanes ||
                                    count == static_cast<std::size_t>(
                                                 LANES)),
                     "lane count mismatch");
        magic_.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
            const ArchConfig &arch = lanes[k].arch;
            arch.validate();
            LSQCA_ASSERT(arch.sam == KIND, "machine/config kind mismatch");
            magic_.push_back(magicSource(arch));
        }
        if constexpr (LANES == kAnyLanes) {
            barrier_.assign(count, 0);
            rowStart_.assign(count, 0);
            rowEnd_.assign(count, 0);
            opcodeBeats_.assign(count * kNumOpcodes, 0);
            execBeats_.assign(count, 0);
            diverged_.assign(count, 0);
        }
        setupRegions();
        setupBanks();
        // Size the ready timelines by the simulated prefix, not the
        // whole program. Program::prefixExtent() memoizes the extent
        // per limit, so only the first job at each prefix scans the
        // stream — an O(program) scan per Machine dominated the fig14
        // sweeps. A solo machine keeps one value ready time per value
        // id the prefix names; lanes keep one per value slot and lane
        // (valueRow()). The sampled estimator's StreamIndex (16+ B per
        // instruction) is deliberately not consulted here.
        const PrefixExtent extent = prog.prefixExtent(instructionLimit());
        varReady_.assign(row(prog.numVariables()), 0);
        valueSlots_ = extent.values;
        valueSlot_ = valueSlots_->slotOf.data();
        valReady_.assign(LANES == 1 ? valueSlots_->slotOf.size()
                                    : row(valueSlots_->count),
                         0);
        const std::int32_t max_slot =
            std::max<std::int32_t>(1, extent.maxSlot);
        slotReady_.assign(row(max_slot + 1), 0);
        scanFree_.assign(row(cfg_.banks), 0);
    }

    /**
     * Run the program and return lane 0's result; every lane's is
     * result() after. simulate() is the one-lane case.
     *
     * Deliberately not inlined into runKind(): letting GCC merge the
     * observed and unobserved loops into one stack frame measurably
     * hurt the unobserved loop's register allocation (+50% on the
     * conventional CX handler).
     */
    __attribute__((noinline)) SimResult
    run(const std::vector<SimObserver *> &observers = {})
    {
        // The lane-independent sums: instruction counts and the bank's
        // memory beats. Accumulated in a local so they can stay in
        // registers across the loop.
        SimResult shared;
        const std::int64_t limit = instructionLimit();
        if constexpr (OBSERVE)
            beginObservation(observers, limit);
        const Instruction *code = prog_.instructions().data();
        for (std::int64_t i = 0; i < limit; ++i) {
            const Instruction &inst = code[i];
            if constexpr (OBSERVE) {
                split_ = LatencySplit{};
                curIndex_ = i;
                pendingCells_.clear();
            }
            const Step step = executeOne(inst);
            ++shared.opcodeCount[static_cast<std::size_t>(inst.op)];
            shared.memoryBeats += step.memoryBeats;
            // Every non-LD/ST instruction enters the CPI denominator.
            shared.countedInstructions +=
                inst.op != Opcode::LD && inst.op != Opcode::ST;
            if constexpr (OBSERVE) {
                InstructionEvent event;
                event.index = i;
                event.inst = inst;
                event.start = step.start;
                event.end = step.end;
                event.split = split_;
                for (SimObserver *observer : observers)
                    observer->onInstruction(event);
                if (inst.op == Opcode::PM) {
                    MagicEvent magic;
                    magic.index = i;
                    magic.request = step.start - split_.magicStall;
                    magic.available = step.start;
                    magic.end = step.end;
                    for (SimObserver *observer : observers)
                        observer->onMagic(magic);
                }
                for (BankCellEvent &cell : pendingCells_) {
                    cell.time = step.start;
                    for (SimObserver *observer : observers)
                        observer->onBankCell(cell);
                }
            }
        }
        if constexpr (OBSERVE)
            endObservation();
        shared_ = std::move(shared);
        return result(0);
    }

    // ---- lanes -----------------------------------------------------------

    /** Lanes in this machine. */
    std::size_t
    lanes() const
    {
        if constexpr (LANES == kAnyLanes)
            return lanes_;
        else
            return static_cast<std::size_t>(LANES);
    }

    /** True once lane @p l lost a row-parallel vote to lane 0; its
     *  timelines are void from that instruction on. */
    bool
    diverged(std::size_t l) const
    {
        if constexpr (LANES == 1)
            return false;
        else
            return diverged_[l] != 0;
    }

    /** Lane @p l's result once run() returned (not diverged). */
    SimResult
    result(std::size_t l) const
    {
        LSQCA_ASSERT(!diverged(l), "a diverged lane has no result");
        SimResult result = shared_;
        for (std::size_t op = 0; op < result.opcodeBeats.size(); ++op)
            result.opcodeBeats[op] =
                opcodeBeats_[row(static_cast<std::int64_t>(op)) + l];
        result.execBeats = execBeats_[l];
        result.floorplan = floorplan();
        result.instructionsSimulated = instructionLimit();
        result.cpi = result.countedInstructions == 0
                         ? 0.0
                         : static_cast<double>(result.execBeats) /
                               static_cast<double>(
                                   result.countedInstructions);
        result.magicConsumed = magic_[l].consumed();
        result.magicStallBeats = magic_[l].stallBeats();
        return result;
    }

    // ---- stepwise interface (sampled estimator / harness) ---------------

    /** Timing outcome of one instruction. */
    struct Step
    {
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int64_t memoryBeats = 0;
    };

    /** Detailed execution of one instruction (the run() body's core). */
    Step
    executeOne(const Instruction &inst)
    {
        return execute(inst);
    }

    /**
     * Does @p inst mutate functional state at all? Instructions for
     * which this is false are no-ops to fastForwardOne(), so a
     * fast-forward pass may skip them without touching the machine.
     */
    bool
    ffRelevant(const Instruction &inst) const
    {
        switch (inst.op) {
          case Opcode::PM:
            return true;
          case Opcode::LD:
          case Opcode::ST:
          case Opcode::HD_M:
          case Opcode::PH_M:
          case Opcode::MXX_M:
          case Opcode::MZZ_M:
            return !isConv(inst.m0);
          case Opcode::CX:
          case Opcode::CZ:
            return !isConv(inst.m0) || !isConv(inst.m1);
          default:
            return false;
        }
    }

    /**
     * Functional execution of one instruction: replay exactly the
     * bank commits the detailed path would perform — same operand
     * choices, same commit order — without timelines or beat costs.
     * See the file comment for the single row-parallel divergence.
     */
    void
    fastForwardOne(const Instruction &inst)
    {
        switch (inst.op) {
          case Opcode::PM:
            ++pmExecuted_;
            return;
          case Opcode::LD:
            if (!isConv(inst.m0))
                bank(inst.m0)->commitLoad(inst.m0);
            return;
          case Opcode::ST:
            if (!isConv(inst.m0))
                bank(inst.m0)->commitStore(inst.m0, cfg_.localityStore);
            return;
          case Opcode::HD_M:
          case Opcode::PH_M:
            if (!isConv(inst.m0)) {
                Bank &b = *bank(inst.m0);
                if (cfg_.inMemoryOps)
                    ffInMem1q(b, inst.m0);
                else
                    ffRoundTrip(b, inst.m0);
            }
            return;
          case Opcode::MXX_M:
          case Opcode::MZZ_M:
            if (!isConv(inst.m0)) {
                Bank &b = *bank(inst.m0);
                if (cfg_.inMemoryOps)
                    ffInMem2q(b, inst.m0);
                else
                    ffRoundTrip(b, inst.m0);
            }
            return;
          case Opcode::CX:
          case Opcode::CZ:
            ffCxCz(inst);
            return;
          default:
            return;
        }
    }

    /**
     * Re-baseline every timing resource after a fast-forward gap:
     * ready times, register slots, scan cells and the SK barrier
     * return to beat 0, the row-parallel window closes, and the
     * magic source is rebuilt in its configured warm state (stall
     * beats accrued so far are carried; see magicStallTotal()).
     * Functional state — grids, gap/scan positions, pmExecuted() —
     * is untouched.
     */
    void
    resetTimingEpoch()
    {
        static_assert(LANES == 1, "the sampled estimator runs one lane");
        std::fill(varReady_.begin(), varReady_.end(), 0);
        std::fill(valReady_.begin(), valReady_.end(), 0);
        std::fill(slotReady_.begin(), slotReady_.end(), 0);
        std::fill(scanFree_.begin(), scanFree_.end(), 0);
        barrier_ = {};
        rowBatch_ = RowBatch{};
        rowStart_ = {};
        rowEnd_ = {};
        magicStallCarry_ += magic_[0].stallBeats();
        magic_[0] = magicSource(cfg_);
    }

    /**
     * Deterministic dump of the functional state: the PM counter and,
     * per bank, the gap / scan position plus the full cell map in
     * row-major order. Two machines that executed the same functional
     * history produce identical strings — the differential harness
     * compares (and on failure, prints) these.
     */
    std::string
    functionalDigest() const
    {
        std::string out = "pm=" + std::to_string(pmExecuted_) + "\n";
        if constexpr (KIND != SamKind::Conventional) {
            for (std::size_t bi = 0; bi < banks_.size(); ++bi) {
                out += "bank" + std::to_string(bi);
                if (!banks_[bi]) {
                    out += ": empty\n";
                    continue;
                }
                const Bank &b = *banks_[bi];
                if constexpr (KIND == SamKind::Line) {
                    out += " gap=" + std::to_string(b.gap());
                } else {
                    const Coord scan = b.scanPosition();
                    out += " scan=" + std::to_string(scan.row) + "," +
                           std::to_string(scan.col);
                }
                out += ":";
                const OccupancyGrid &grid = b.grid();
                for (std::int32_t r = 0; r < grid.rows(); ++r) {
                    out += " |";
                    for (std::int32_t c = 0; c < grid.cols(); ++c)
                        out += " " + std::to_string(grid.at({r, c}));
                }
                out += "\n";
            }
        }
        return out;
    }

    /** PM instructions executed (detailed + fast-forwarded). */
    std::int64_t
    pmExecuted() const
    {
        return pmExecuted_;
    }

    /** Magic stall beats across every timing epoch so far. */
    std::int64_t
    magicStallTotal() const
    {
        static_assert(LANES == 1, "the sampled estimator runs one lane");
        return magicStallCarry_ + magic_[0].stallBeats();
    }

    /** Floorplan accounting for this configuration (as run() reports). */
    FloorplanStats
    floorplan() const
    {
        return floorplanStats(cfg_, prog_.numVariables(),
                              numConventional_);
    }

  private:
    // ---- lane layout -----------------------------------------------------

    std::int64_t
    instructionLimit() const
    {
        std::int64_t limit = prog_.size();
        if (opts_.maxInstructions > 0)
            limit = std::min(limit, opts_.maxInstructions);
        return limit;
    }

    /** Index of lane 0's entry @p e in a lane-minor table. */
    std::size_t
    row(std::int64_t e) const
    {
        return static_cast<std::size_t>(e) * lanes();
    }

    /** A lane's magic-state supply, in its configured start state. */
    static MagicSource
    magicSource(const ArchConfig &arch)
    {
        return MagicSource(arch.factories, arch.effectiveBufferCap(),
                           arch.lat.msfPeriod, arch.lat.magicTransfer,
                           arch.warmBuffer, arch.instantMagic);
    }

    // ---- telemetry -----------------------------------------------------

    /** Forwards one bank's grid mutations into pendingCells_. */
    class CellRecorder final : public CellListener
    {
      public:
        CellRecorder(Machine *machine, std::int32_t bank)
            : machine_(machine), bank_(bank)
        {
        }

        void
        onCellOccupied(QubitId q, const Coord &c) override
        {
            machine_->pendingCells_.push_back(
                {machine_->curIndex_, 0, bank_, q, c,
                 CellEventKind::Occupy});
        }

        void
        onCellVacated(QubitId q, const Coord &c) override
        {
            machine_->pendingCells_.push_back(
                {machine_->curIndex_, 0, bank_, q, c,
                 CellEventKind::Vacate});
        }

      private:
        Machine *machine_;
        std::int32_t bank_;
    };

    void
    beginObservation(const std::vector<SimObserver *> &observers,
                     std::int64_t limit)
    {
        SimBeginEvent begin;
        begin.program = &prog_;
        begin.arch = &cfg_;
        begin.instructions = limit;
        if constexpr (KIND != SamKind::Conventional) {
            for (std::size_t b = 0; b < banks_.size(); ++b) {
                BankLayout shape;
                if (banks_[b]) {
                    shape.rows = banks_[b]->grid().rows();
                    shape.cols = banks_[b]->grid().cols();
                    shape.occupancy = banks_[b]->occupancy();
                }
                begin.banks.push_back(shape);
            }
        }
        for (SimObserver *observer : observers)
            observer->onSimBegin(begin);

        if constexpr (KIND != SamKind::Conventional) {
            // The initial layout as occupy events (index -1, beat 0),
            // bank-major then row-major — the state every later
            // occupy/vacate delta applies to.
            for (std::size_t b = 0; b < banks_.size(); ++b) {
                if (!banks_[b])
                    continue;
                const OccupancyGrid &grid = banks_[b]->grid();
                for (std::int32_t r = 0; r < grid.rows(); ++r) {
                    for (std::int32_t c = 0; c < grid.cols(); ++c) {
                        const QubitId q = grid.at({r, c});
                        if (q == kNoQubit)
                            continue;
                        const BankCellEvent event{
                            -1, 0, static_cast<std::int32_t>(b), q,
                            Coord{r, c}, CellEventKind::Occupy};
                        for (SimObserver *observer : observers)
                            observer->onBankCell(event);
                    }
                }
                recorders_.push_back(std::make_unique<CellRecorder>(
                    this, static_cast<std::int32_t>(b)));
                banks_[b]->setCellListener(recorders_.back().get());
            }
        }
    }

    /**
     * Detach the bank hooks. The SimEndEvent itself is emitted by
     * simulate(), after the recordTrace/recordBreakdown shims have
     * moved their output into the result — observers were promised
     * the *finished* SimResult, trace vectors and breakdown included.
     */
    void
    endObservation()
    {
        if constexpr (KIND != SamKind::Conventional) {
            for (auto &bank : banks_)
                if (bank)
                    bank->setCellListener(nullptr);
        }
    }

    // ---- setup --------------------------------------------------------

    void
    setupRegions()
    {
        const auto n = static_cast<std::size_t>(prog_.numVariables());
        region_.assign(n, Region::Sam);
        bankOf_.assign(n, -1);
        if constexpr (KIND == SamKind::Conventional) {
            region_.assign(n, Region::Conventional);
            numConventional_ = static_cast<std::int64_t>(n);
            return;
        }
        numConventional_ = static_cast<std::int64_t>(
            cfg_.hybridFraction * static_cast<double>(n) + 0.5);
        numConventional_ =
            std::min<std::int64_t>(numConventional_,
                                   static_cast<std::int64_t>(n));
        if (numConventional_ > 0) {
            // The hottest variables by static reference count move into
            // the conventional region (Sec. VI-C), ties toward lower id.
            const auto refs = prog_.referenceCounts();
            std::vector<std::int32_t> order(n);
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(order.begin(), order.end(),
                             [&refs](std::int32_t a, std::int32_t b) {
                                 return refs[static_cast<std::size_t>(a)] >
                                        refs[static_cast<std::size_t>(b)];
                             });
            for (std::int64_t i = 0; i < numConventional_; ++i)
                region_[static_cast<std::size_t>(
                    order[static_cast<std::size_t>(i)])] =
                    Region::Conventional;
        }
    }

    /**
     * Within-bank placement order. Interleaved places bit i of every
     * program register adjacently, so bit-sliced working sets start
     * co-located ("strategic data allocation").
     */
    std::vector<QubitId>
    placementOrder(std::vector<QubitId> vars) const
    {
        if (cfg_.placement == PlacementPolicy::RowMajor)
            return vars;
        std::stable_sort(
            vars.begin(), vars.end(),
            [this](QubitId a, QubitId b) {
                const std::int32_t ra = prog_.registerOf(a);
                const std::int32_t rb = prog_.registerOf(b);
                const std::int64_t oa =
                    ra < 0 ? a
                           : a - prog_.registers()[static_cast<
                                     std::size_t>(ra)].first;
                const std::int64_t ob =
                    rb < 0 ? b
                           : b - prog_.registers()[static_cast<
                                     std::size_t>(rb)].first;
                return std::tie(oa, ra) < std::tie(ob, rb);
            });
        return vars;
    }

    void
    setupBanks()
    {
        if constexpr (KIND == SamKind::Conventional)
            return;
        // Deal SAM-resident variables round-robin over the banks
        // ("distributed sequentially to all the banks in order").
        std::vector<std::vector<QubitId>> dealt(
            static_cast<std::size_t>(cfg_.banks));
        std::int64_t next = 0;
        for (std::int32_t v = 0; v < prog_.numVariables(); ++v) {
            if (region_[static_cast<std::size_t>(v)] !=
                Region::Sam)
                continue;
            const auto b = static_cast<std::size_t>(next % cfg_.banks);
            dealt[b].push_back(v);
            bankOf_[static_cast<std::size_t>(v)] =
                static_cast<std::int32_t>(b);
            ++next;
        }
        for (auto &vars : dealt)
            vars = placementOrder(std::move(vars));
        banks_.resize(static_cast<std::size_t>(cfg_.banks));
        for (std::size_t b = 0; b < dealt.size(); ++b) {
            if (dealt[b].empty())
                continue;
            const auto cap =
                static_cast<std::int32_t>(dealt[b].size());
            banks_[b] = std::make_unique<Bank>(cap, cfg_.lat);
            banks_[b]->placeInitial(dealt[b]);
        }
    }

    // ---- bank dispatch -------------------------------------------------

    bool
    isConv(std::int32_t m) const
    {
        if constexpr (KIND == SamKind::Conventional)
            return true;
        return region_[static_cast<std::size_t>(m)] ==
               Region::Conventional;
    }

    std::int32_t
    bankOf(std::int32_t m) const
    {
        const std::int32_t b = bankOf_[static_cast<std::size_t>(m)];
        LSQCA_ASSERT(b >= 0, "variable is not SAM-resident");
        return b;
    }

    Bank *
    bank(std::int32_t m) const
    {
        return banks_[static_cast<std::size_t>(bankOf(m))].get();
    }

    // Cost-then-commit pairs against a caller-resolved bank: each exec
    // path looks its bank up once per instruction instead of once per
    // cost/commit call (the dispatch indirection showed up in the
    // point/line simulate() profiles next to the scans themselves).
    // Each helper also owns its latency-split attribution, so every
    // exec path charges the right component without repeating itself
    // (the `if constexpr` strips it from the unobserved instantiation).
    // A bank cost depends on the instruction stream alone, so every
    // lane shares it: the exec paths take it once, before their lanes'
    // timing.

    std::int64_t
    takeLoad(Bank *b, std::int32_t m)
    {
        const std::int64_t cost = b->loadCost(m);
        b->commitLoad(m);
        if constexpr (OBSERVE)
            split_.load += cost;
        return cost;
    }

    std::int64_t
    takeStore(Bank *b, std::int32_t m)
    {
        const std::int64_t cost = b->storeCost(m, cfg_.localityStore);
        b->commitStore(m, cfg_.localityStore);
        if constexpr (OBSERVE)
            split_.store += cost;
        return cost;
    }

    /** Ablation path: round-trip through the CR instead of in-memory. */
    std::int64_t
    takeRoundTrip(Bank *b, std::int32_t m)
    {
        // Sequenced explicitly: the store is only legal once the load
        // has removed m from the grid.
        const std::int64_t ld = takeLoad(b, m);
        return ld + takeStore(b, m);
    }

    /** Scan/gap travel for an in-memory single-qubit op. */
    std::int64_t
    takeInMem1q(Bank *b, std::int32_t m)
    {
        if constexpr (KIND == SamKind::Line) {
            const std::int64_t cost = b->alignCost(m);
            b->commitAlign(m);
            if constexpr (OBSERVE)
                split_.align += cost;
            return cost;
        } else {
            const std::int64_t cost = b->seekCost(m);
            b->commitSeek(m);
            if constexpr (OBSERVE)
                split_.seek += cost;
            return cost;
        }
    }

    /** Positioning for an in-memory two-qubit op against the CR/port. */
    std::int64_t
    takeInMem2q(Bank *b, std::int32_t m)
    {
        if constexpr (KIND == SamKind::Line) {
            const std::int64_t cost = b->alignCost(m);
            b->commitAlign(m);
            if constexpr (OBSERVE)
                split_.align += cost;
            return cost;
        } else {
            const std::int64_t cost = b->fetchToPortCost(m);
            b->commitFetchToPort(m);
            if constexpr (OBSERVE)
                split_.pick += cost;
            return cost;
        }
    }

    // ---- functional (commit-only) counterparts --------------------------

    void
    ffRoundTrip(Bank &b, std::int32_t m)
    {
        b.commitLoad(m);
        b.commitStore(m, cfg_.localityStore);
    }

    void
    ffInMem1q(Bank &b, std::int32_t m)
    {
        if constexpr (KIND == SamKind::Line)
            b.commitAlign(m);
        else
            b.commitSeek(m);
    }

    void
    ffInMem2q(Bank &b, std::int32_t m)
    {
        if constexpr (KIND == SamKind::Line)
            b.commitAlign(m);
        else
            b.commitFetchToPort(m);
    }

    /** Functional mirror of execCxCz: same branches, same commit order,
     *  same cheaper-operand choice (loadCost is a pure function of the
     *  grid, so the comparison is identical to the detailed path's). */
    void
    ffCxCz(const Instruction &inst)
    {
        const bool conv0 = isConv(inst.m0);
        const bool conv1 = isConv(inst.m1);
        if (conv0 && conv1)
            return;

        if (conv0 != conv1) {
            const std::int32_t q = conv0 ? inst.m1 : inst.m0;
            Bank &b = *bank(q);
            if (cfg_.inMemoryOps)
                ffInMem2q(b, q);
            else
                ffRoundTrip(b, q);
            return;
        }

        Bank &bank0 = *bank(inst.m0);
        Bank &bank1 = *bank(inst.m1);
        if (!cfg_.inMemoryOps) {
            // Ablation order matters: ld0, ld1, st0, st1.
            bank0.commitLoad(inst.m0);
            bank1.commitLoad(inst.m1);
            bank0.commitStore(inst.m0, cfg_.localityStore);
            bank1.commitStore(inst.m1, cfg_.localityStore);
            return;
        }

        if (bankOf(inst.m0) == bankOf(inst.m1)) {
            if constexpr (KIND != SamKind::Line) {
                bank0.commitFetchToPort(inst.m0);
                bank0.commitFetchToPort(inst.m1);
            } else {
                Bank &b = bank0;
                if (cfg_.directSurgery &&
                    b.canDirectSurgery(inst.m0, inst.m1)) {
                    b.commitDirectSurgery(inst.m0, inst.m1);
                } else {
                    const std::int64_t ld0 = b.loadCost(inst.m0);
                    const std::int64_t ld1 = b.loadCost(inst.m1);
                    const bool load0 = ld0 <= ld1;
                    const std::int32_t loaded =
                        load0 ? inst.m0 : inst.m1;
                    const std::int32_t in_mem =
                        load0 ? inst.m1 : inst.m0;
                    b.commitLoad(loaded);
                    ffInMem2q(b, in_mem);
                    b.commitStore(loaded, cfg_.localityStore);
                }
            }
        } else {
            ffInMem2q(bank0, inst.m0);
            ffInMem2q(bank1, inst.m1);
        }
    }

    // ---- issue helpers --------------------------------------------------

    /** Lane @p l's pending SK barrier, consumed (it gates only the
     *  instruction after the SK). */
    std::int64_t
    takeBarrier(std::size_t l)
    {
        const std::int64_t b = barrier_[l];
        barrier_[l] = 0;
        return b;
    }

    // Lane rows: lane 0's ready time in each table; lane l's is l past
    // it.

    std::int64_t *
    varRow(std::int32_t m)
    {
        return varReady_.data() + row(m);
    }

    std::int64_t *
    slotRow(std::int32_t c)
    {
        return slotReady_.data() + row(c);
    }

    std::int64_t *
    scanRow(std::int32_t m)
    {
        return scanFree_.data() + row(bankOf(m));
    }

    /**
     * Ready times of classical value @p v. Lanes keep them in the
     * value's slot (ValueSlots), a few int64s per lane instead of 8 B
     * per value; a solo machine indexes by value id and so skips the
     * dependent slot load on every MX/MZ/SK.
     */
    std::int64_t *
    valueRow(std::int32_t v)
    {
        if constexpr (LANES == 1)
            return valReady_.data() + v;
        else
            return valReady_.data() +
                   row(valueSlot_[static_cast<std::size_t>(v)]);
    }

    /** One lane's issue and completion beats for an instruction. */
    struct Span
    {
        std::int64_t start;
        std::int64_t end;
    };

    /**
     * The timing half of an exec path: @p span(l) advances lane l's
     * timelines past @p inst and returns when it ran, and each lane's
     * beats are accounted here. @p memory is the bank's motion, which
     * every lane shares. Returns the last lane's step: a solo
     * machine's only one.
     */
    template <typename F>
    Step
    eachLane(const Instruction &inst, std::int64_t memory, F &&span)
    {
        Step step;
        const std::size_t beats = row(static_cast<std::int64_t>(inst.op));
        for (std::size_t l = 0; l < lanes(); ++l) {
            const Span ran = span(l);
            opcodeBeats_[beats + l] += ran.end - ran.start;
            execBeats_[l] = maxOf(execBeats_[l], ran.end);
            step = {ran.start, ran.end, memory};
        }
        return step;
    }

    // ---- per-opcode execution -------------------------------------------
    //
    // Each path decodes its instruction and takes its bank costs once,
    // then runs eachLane() over the lanes' timelines.

    Step
    execute(const Instruction &inst)
    {
        switch (inst.op) {
          case Opcode::LD: return execLoadStore<true>(inst);
          case Opcode::ST: return execLoadStore<false>(inst);
          case Opcode::PZ_C:
          case Opcode::PP_C: return execPrepC(inst);
          case Opcode::PM: return execMagic(inst);
          case Opcode::HD_C:
          case Opcode::PH_C: return execUnitaryC(inst);
          case Opcode::MX_C:
          case Opcode::MZ_C: return execMeasC(inst);
          case Opcode::MXX_C:
          case Opcode::MZZ_C: return execMeas2C(inst);
          case Opcode::SK: return execSkip(inst);
          case Opcode::PZ_M:
          case Opcode::PP_M:
          case Opcode::MX_M:
          case Opcode::MZ_M: return execZeroLatM(inst);
          case Opcode::HD_M:
          case Opcode::PH_M: return execUnitaryM(inst);
          case Opcode::MXX_M:
          case Opcode::MZZ_M: return execMeas2M(inst);
          case Opcode::CX:
          case Opcode::CZ: return execCxCz(inst);
        }
        throw InternalError("unhandled opcode");
    }

    /** LD and ST: one register slot and one variable. */
    template <bool LOAD>
    Step
    execLoadStore(const Instruction &inst)
    {
        std::int64_t *slot = slotRow(inst.c0);
        std::int64_t *var = varRow(inst.m0);
        if (isConv(inst.m0)) {
            // Conventional-region qubits are always register-adjacent.
            return eachLane(inst, 0, [&](std::size_t l) {
                const std::int64_t start =
                    maxOf(var[l], slot[l], takeBarrier(l));
                var[l] = slot[l] = start;
                return Span{start, start};
            });
        }
        std::int64_t *scan = scanRow(inst.m0);
        const std::int64_t cost = LOAD ? takeLoad(bank(inst.m0), inst.m0)
                                       : takeStore(bank(inst.m0), inst.m0);
        return eachLane(inst, cost, [&](std::size_t l) {
            const std::int64_t start =
                maxOf(var[l], slot[l], scan[l], takeBarrier(l));
            const std::int64_t end = start + cost;
            var[l] = slot[l] = scan[l] = end;
            return Span{start, end};
        });
    }

    Step
    execPrepC(const Instruction &inst)
    {
        std::int64_t *slot = slotRow(inst.c0);
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t start = std::max(slot[l], takeBarrier(l));
            slot[l] = start;
            return Span{start, start};
        });
    }

    Step
    execMagic(const Instruction &inst)
    {
        std::int64_t *slot = slotRow(inst.c0);
        ++pmExecuted_;
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t req = std::max(slot[l], takeBarrier(l));
            const MagicSource::Grant grant = magic_[l].acquire(req);
            slot[l] = grant.end;
            if constexpr (OBSERVE)
                split_.magicStall += grant.start - req;
            return Span{grant.start, grant.end};
        });
    }

    Step
    execUnitaryC(const Instruction &inst)
    {
        std::int64_t *slot = slotRow(inst.c0);
        const std::int64_t beats = inst.op == Opcode::HD_C
                                       ? cfg_.lat.hadamard
                                       : cfg_.lat.phase;
        if constexpr (OBSERVE)
            split_.compute += beats;
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t start = std::max(slot[l], takeBarrier(l));
            const std::int64_t end = start + beats;
            slot[l] = end;
            return Span{start, end};
        });
    }

    Step
    execMeasC(const Instruction &inst)
    {
        std::int64_t *slot = slotRow(inst.c0);
        std::int64_t *value = valueRow(inst.v0);
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t start = std::max(slot[l], takeBarrier(l));
            slot[l] = start;
            value[l] = start;
            return Span{start, start};
        });
    }

    Step
    execMeas2C(const Instruction &inst)
    {
        std::int64_t *slot0 = slotRow(inst.c0);
        std::int64_t *slot1 = slotRow(inst.c1);
        std::int64_t *value = valueRow(inst.v0);
        const std::int64_t surgery = cfg_.lat.surgery;
        if constexpr (OBSERVE)
            split_.surgery += surgery;
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t start =
                maxOf(slot0[l], slot1[l], takeBarrier(l));
            const std::int64_t end = start + surgery;
            slot0[l] = slot1[l] = end;
            value[l] = end;
            return Span{start, end};
        });
    }

    Step
    execSkip(const Instruction &inst)
    {
        std::int64_t *value = valueRow(inst.v0);
        const std::int64_t wait = cfg_.lat.skWait;
        if constexpr (OBSERVE)
            split_.skWait += wait;
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t start = std::max(value[l], takeBarrier(l));
            const std::int64_t end = start + wait;
            barrier_[l] = end; // gates only the next instruction
            return Span{start, end};
        });
    }

    Step
    execZeroLatM(const Instruction &inst)
    {
        std::int64_t *var = varRow(inst.m0);
        std::int64_t *value = inst.v0 >= 0 ? valueRow(inst.v0) : nullptr;
        return eachLane(inst, 0, [&](std::size_t l) {
            const std::int64_t start = std::max(var[l], takeBarrier(l));
            var[l] = start;
            if (value != nullptr)
                value[l] = start;
            return Span{start, start};
        });
    }

    Step
    execUnitaryM(const Instruction &inst)
    {
        const std::int64_t beats = inst.op == Opcode::HD_M
                                       ? cfg_.lat.hadamard
                                       : cfg_.lat.phase;
        std::int64_t *var = varRow(inst.m0);
        if (isConv(inst.m0)) {
            if constexpr (OBSERVE)
                split_.compute += beats;
            return eachLane(inst, 0, [&](std::size_t l) {
                const std::int64_t start = std::max(var[l], takeBarrier(l));
                const std::int64_t end = start + beats;
                var[l] = end;
                return Span{start, end};
            });
        }
        std::int64_t *scan = scanRow(inst.m0);
        Bank *b = bank(inst.m0);

        // Row-parallel unitaries (Sec. V-C): a second H/S whose target
        // shares the currently-open gap-row window executes in the same
        // window for free. Line SAM only — the branch vanishes from the
        // point/conventional instantiations. The window test reads
        // timing, so it is the lane vote (file comment): lane 0's
        // decides for every lane, and a lane whose test disagrees has
        // diverged.
        std::int32_t target_row = -1;
        const bool batching = KIND == SamKind::Line &&
                              cfg_.rowParallelOps && cfg_.inMemoryOps;
        if constexpr (KIND == SamKind::Line) {
            if (batching) {
                target_row = b->positionOf(inst.m0).row;
                const bool open = rowBatch_.valid &&
                                  rowBatch_.op == inst.op &&
                                  rowBatch_.bank == bankOf(inst.m0) &&
                                  target_row == rowBatch_.row;
                const auto joins = [&](std::size_t l) {
                    return open && barrier_[l] == 0 &&
                           var[l] <= rowStart_[l];
                };
                const bool window = joins(0);
                for (std::size_t l = 1; l < lanes(); ++l)
                    if (joins(l) != window)
                        diverged_[l] = 1;
                if (window) {
                    // A shared window: no split components — the
                    // motion and compute were charged to the opener.
                    return eachLane(inst, 0, [&](std::size_t l) {
                        var[l] = rowEnd_[l];
                        return Span{rowStart_[l], rowEnd_[l]};
                    });
                }
            }
        }

        const std::int64_t motion =
            cfg_.inMemoryOps ? takeInMem1q(b, inst.m0)
                             : takeRoundTrip(b, inst.m0);
        if constexpr (OBSERVE)
            split_.compute += beats;
        if (batching) {
            // The align moved the gap, not the target: row still holds.
            rowBatch_ = {true, inst.op, bankOf(inst.m0), target_row};
        }
        return eachLane(inst, motion, [&](std::size_t l) {
            const std::int64_t start =
                maxOf(var[l], scan[l], takeBarrier(l));
            const std::int64_t end = start + motion + beats;
            var[l] = scan[l] = end;
            if (batching) {
                rowStart_[l] = start + motion;
                rowEnd_[l] = end;
            }
            return Span{start, end};
        });
    }

    Step
    execMeas2M(const Instruction &inst)
    {
        std::int64_t *slot = slotRow(inst.c0);
        std::int64_t *var = varRow(inst.m0);
        std::int64_t *value = valueRow(inst.v0);
        const std::int64_t surgery = cfg_.lat.surgery;
        if constexpr (OBSERVE)
            split_.surgery += surgery;
        if (isConv(inst.m0)) {
            return eachLane(inst, 0, [&](std::size_t l) {
                const std::int64_t start =
                    maxOf(var[l], slot[l], takeBarrier(l));
                const std::int64_t end = start + surgery;
                var[l] = slot[l] = end;
                value[l] = end;
                return Span{start, end};
            });
        }
        // Concealment (Fig. 1): the scan motion starts as soon as the
        // operand and the scan cell are free; the lattice surgery then
        // begins once BOTH the positioned operand and the CR-side state
        // (e.g. the magic state PM is fetching) are ready. The memory
        // latency hides behind the magic-state wait.
        std::int64_t *scan = scanRow(inst.m0);
        Bank *b = bank(inst.m0);
        if (cfg_.inMemoryOps) {
            const std::int64_t motion = takeInMem2q(b, inst.m0);
            return eachLane(inst, motion, [&](std::size_t l) {
                const std::int64_t motion_start =
                    maxOf(var[l], scan[l], takeBarrier(l));
                const std::int64_t surgery_start =
                    std::max(motion_start + motion, slot[l]);
                const std::int64_t end = surgery_start + surgery;
                var[l] = slot[l] = end;
                // Point SAM: the operand is parked at the port, so the
                // scan is free to serve other requests during the magic
                // wait; line SAM must keep the gap row aligned (it is
                // the merge path) until the surgery completes.
                if constexpr (KIND == SamKind::Point)
                    scan[l] = motion_start + motion;
                else
                    scan[l] = end;
                value[l] = end;
                return Span{motion_start, end};
            });
        }
        const std::int64_t motion = takeLoad(b, inst.m0);
        const std::int64_t st = takeStore(b, inst.m0);
        return eachLane(inst, motion + st, [&](std::size_t l) {
            const std::int64_t motion_start =
                maxOf(var[l], scan[l], takeBarrier(l));
            const std::int64_t surgery_start =
                std::max(motion_start + motion, slot[l]);
            const std::int64_t end = surgery_start + surgery + st;
            var[l] = slot[l] = scan[l] = end;
            value[l] = end;
            return Span{motion_start, end};
        });
    }

    /**
     * Optimized CX/CZ (Sec. VI-A): at run time the machine loads the
     * cheaper operand into the CR and touches the other in memory; a
     * lattice-surgery CNOT/CZ is two 1-beat merges via a free |+>
     * ancilla at the port.
     */
    Step
    execCxCz(const Instruction &inst)
    {
        std::int64_t *var0 = varRow(inst.m0);
        std::int64_t *var1 = varRow(inst.m1);
        const std::int64_t surgery2 = 2 * cfg_.lat.surgery;
        const bool conv0 = isConv(inst.m0);
        const bool conv1 = isConv(inst.m1);
        if constexpr (OBSERVE)
            split_.surgery += surgery2;

        if (conv0 && conv1) {
            return eachLane(inst, 0, [&](std::size_t l) {
                const std::int64_t start =
                    maxOf(var0[l], var1[l], takeBarrier(l));
                const std::int64_t end = start + surgery2;
                var0[l] = var1[l] = end;
                return Span{start, end};
            });
        }

        if (conv0 != conv1) {
            const std::int32_t q = conv0 ? inst.m1 : inst.m0;
            std::int64_t *scan = scanRow(q);
            Bank *b = bank(q);
            const std::int64_t motion =
                cfg_.inMemoryOps ? takeInMem2q(b, q)
                                 : takeRoundTrip(b, q);
            return eachLane(inst, motion, [&](std::size_t l) {
                const std::int64_t start =
                    maxOf(var0[l], var1[l], scan[l], takeBarrier(l));
                const std::int64_t end = start + motion + surgery2;
                var0[l] = var1[l] = scan[l] = end;
                return Span{start, end};
            });
        }

        // Both operands live in SAM. Every case below costs its banks
        // first; then each lane starts once both operands and both
        // scans are free, runs for `length` beats, and releases each
        // scan `hold0` / `hold1` beats after its start.
        std::int64_t *scan0 = scanRow(inst.m0);
        std::int64_t *scan1 = scanRow(inst.m1);
        Bank *bank0 = bank(inst.m0);
        Bank *bank1 = bank(inst.m1);
        const bool same_bank = bankOf(inst.m0) == bankOf(inst.m1);
        std::int64_t motion;
        std::int64_t length;
        std::int64_t hold0;
        std::int64_t hold1;

        if (!cfg_.inMemoryOps) {
            // Ablation: round-trip both operands through the CR.
            const std::int64_t ld0 = takeLoad(bank0, inst.m0);
            const std::int64_t ld1 = takeLoad(bank1, inst.m1);
            const std::int64_t st0 = takeStore(bank0, inst.m0);
            const std::int64_t st1 = takeStore(bank1, inst.m1);
            motion = ld0 + ld1 + st0 + st1;
            length = same_bank ? motion + surgery2
                               : std::max(ld0, ld1) + surgery2 +
                                     std::max(st0, st1);
            hold0 = hold1 = length;
        } else if (same_bank) {
            if constexpr (KIND != SamKind::Line) {
                // Drag both operands to the port region (they stay in
                // memory; locality makes later touches cheap). The
                // port-side surgery itself does not occupy the scan.
                motion = takeInMem2q(bank0, inst.m0);
                motion += takeInMem2q(bank0, inst.m1);
                length = motion + surgery2;
                hold0 = hold1 = motion;
            } else {
                Bank *b = bank0;
                if (cfg_.directSurgery &&
                    b->canDirectSurgery(inst.m0, inst.m1)) {
                    // Extension: lattice surgery straight between two
                    // data cells sharing a line; only the gap
                    // repositions.
                    motion = b->directSurgeryCost(inst.m0, inst.m1);
                    b->commitDirectSurgery(inst.m0, inst.m1);
                    if constexpr (OBSERVE)
                        split_.align += motion;
                } else {
                    // Sec. VI-A translation rule: load the cheaper
                    // operand into the CR, touch the other in memory,
                    // and store the loaded one back — the
                    // locality-aware store drops it into the partner's
                    // line (Sec. V-B pairing). Each operand's load cost
                    // is computed once and reused for both the
                    // comparison and the commit path.
                    const std::int64_t ld0 = b->loadCost(inst.m0);
                    const std::int64_t ld1 = b->loadCost(inst.m1);
                    const bool load0 = ld0 <= ld1;
                    const std::int32_t loaded =
                        load0 ? inst.m0 : inst.m1;
                    const std::int32_t in_mem =
                        load0 ? inst.m1 : inst.m0;
                    const std::int64_t ld = load0 ? ld0 : ld1;
                    b->commitLoad(loaded);
                    if constexpr (OBSERVE)
                        split_.load += ld;
                    const std::int64_t pos = takeInMem2q(b, in_mem);
                    const std::int64_t st = takeStore(b, loaded);
                    motion = ld + pos + st;
                }
                length = motion + surgery2;
                hold0 = hold1 = length;
            }
        } else {
            // Cross-bank: each bank positions its operand concurrently;
            // the merge path runs through the CR ports. Point scans are
            // released after positioning; line gaps hold their rows.
            const std::int64_t pos0 = takeInMem2q(bank0, inst.m0);
            const std::int64_t pos1 = takeInMem2q(bank1, inst.m1);
            motion = pos0 + pos1;
            length = std::max(pos0, pos1) + surgery2;
            hold0 = KIND == SamKind::Point ? pos0 : length;
            hold1 = KIND == SamKind::Point ? pos1 : length;
        }
        return eachLane(inst, motion, [&](std::size_t l) {
            const std::int64_t start = maxOf(var0[l], var1[l], scan0[l],
                                             scan1[l], takeBarrier(l));
            const std::int64_t end = start + length;
            var0[l] = var1[l] = end;
            scan1[l] = start + hold1;
            scan0[l] = start + hold0;
            return Span{start, end};
        });
    }

    const Program &prog_;
    SimOptions opts_;  ///< lane 0's
    ArchConfig cfg_;   ///< lane 0's: the bank walk's
    std::size_t lanes_; ///< under kAnyLanes; else LANES
    std::vector<MagicSource> magic_; ///< one per lane

    std::vector<Region> region_;
    std::vector<std::int32_t> bankOf_;
    std::int64_t numConventional_ = 0;
    std::vector<std::unique_ptr<Bank>> banks_;

    /**
     * An open row-parallel unitary window (line SAM, Sec. V-C); each
     * lane's window opens at rowStart_ and closes at rowEnd_.
     */
    struct RowBatch
    {
        bool valid = false;
        Opcode op = Opcode::HD_M;
        std::int32_t bank = -1;
        std::int32_t row = -1;
    };

    // Lane-minor timelines (file comment, "Lanes").
    std::vector<std::int64_t> varReady_;
    std::shared_ptr<const ValueSlots> valueSlots_;
    const std::int32_t *valueSlot_ = nullptr; ///< valueSlots_->slotOf
    std::vector<std::int64_t> valReady_;      ///< see valueRow()
    std::vector<std::int64_t> slotReady_;
    std::vector<std::int64_t> scanFree_;
    PerLane<std::int64_t> barrier_{};
    RowBatch rowBatch_;
    PerLane<std::int64_t> rowStart_{};
    PerLane<std::int64_t> rowEnd_{};

    // Per-lane accounting; shared_ holds run()'s lane-independent sums.
    PerLane<std::int64_t, kNumOpcodes> opcodeBeats_{};
    PerLane<std::int64_t> execBeats_{};
    PerLane<std::uint8_t> diverged_{};
    SimResult shared_;

    /** PM instructions executed, detailed or fast-forwarded; unlike
     *  MagicSource::consumed() it survives resetTimingEpoch() and
     *  counts in instant-magic mode. */
    std::int64_t pmExecuted_ = 0;
    /** Stall beats from magic sources retired by resetTimingEpoch(). */
    std::int64_t magicStallCarry_ = 0;

    // Telemetry state, touched only by the OBSERVE instantiation.
    LatencySplit split_;
    std::int64_t curIndex_ = -1;
    std::vector<BankCellEvent> pendingCells_;
    std::vector<std::unique_ptr<CellRecorder>> recorders_;
};

} // namespace lsqca::detail

#endif // LSQCA_SIM_MACHINE_H
