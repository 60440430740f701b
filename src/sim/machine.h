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
 * instruction stream alone. So one machine, the leader (Lane::Lead),
 * owns the banks and records every bank-derived value on a Tape;
 * followers (Lane::Follow) own no banks, keep their own timelines and
 * MagicSource, and replay the tape chunk by chunk, in lockstep with
 * the leader (run()'s followers). The row-parallel window is the one
 * bank decision that reads timing, so it is also the lane vote: every
 * lane evaluates it, the leader's vote drives the banks, and a
 * follower that votes otherwise marks itself diverged() and stops;
 * its runner re-simulates it alone (simulateLanes()). A solo machine
 * (Lane::Solo: simulate(), the estimator) records nothing, and its
 * exec paths compile to the plain bank calls and per-value ready times
 * of a simulator without lanes (replayed(), valueReady()).
 *
 * This header is internal: nothing outside src/sim, src/estimate, the
 * test tree, and the micro-kernel bench should include it.
 */

#include <algorithm>
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

/** A machine's part in a bank walk (file comment, "Lanes"). */
enum class Lane : std::uint8_t
{
    Solo,   ///< walks its own banks (simulate(), the estimator)
    Lead,   ///< walks the banks and records the tape for followers
    Follow, ///< owns no banks; replays its leader's tape
};

/**
 * The bank-derived values of one chunk of instructions, in the order
 * the exec paths ask for them: the leader appends, followers replay.
 */
using Tape = std::vector<std::int64_t>;

/** Instructions the leader runs before its followers replay them. */
inline constexpr std::int64_t kLaneChunk = 1024;

/**
 * The machine: bank state + resource timelines + in-order dataflow
 * issue. One instance per simulate() call.
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
 * LANE is the machine's part in a shared bank walk (file comment);
 * only solo machines are observed.
 */
template <SamKind KIND, bool OBSERVE, Lane LANE = Lane::Solo>
class Machine
{
    static_assert(!OBSERVE || LANE == Lane::Solo, "lanes are unobserved");

    /** Concrete bank model for this specialization (unused for the
     *  conventional machine, where no variable is SAM-resident). */
    using Bank = std::conditional_t<KIND == SamKind::Line, LineSamBank,
                                    PointSamBank>;

  public:
    using Follower = Machine<KIND, false, Lane::Follow>;

    /**
     * A solo or leading machine, or with @p leaderTape a follower that
     * replays that tape; a follower's options must share its leader's
     * bank walk (sharesBankWalk()).
     */
    Machine(const Program &prog, const SimOptions &opts,
            const Tape *leaderTape = nullptr)
        : prog_(prog), opts_(opts), cfg_(opts.arch),
          magic_(cfg_.factories, cfg_.effectiveBufferCap(),
                 cfg_.lat.msfPeriod, cfg_.lat.magicTransfer,
                 cfg_.warmBuffer, cfg_.instantMagic),
          replay_(leaderTape)
    {
        cfg_.validate();
        LSQCA_ASSERT(cfg_.sam == KIND, "machine/config kind mismatch");
        LSQCA_ASSERT((leaderTape != nullptr) == (LANE == Lane::Follow),
                     "a follower, and only a follower, replays a tape");
        setupRegions();
        setupBanks();
        // Size the ready timelines by the simulated prefix, not the
        // whole program. Program::prefixExtent() memoizes the extent
        // per limit, so only the first job at each prefix scans the
        // stream — an O(program) scan per Machine dominated the fig14
        // sweeps. A solo machine keeps one value ready time per value
        // id the prefix names; lanes, which run several machines at
        // once, keep one per value slot (valueReady()). The sampled
        // estimator's StreamIndex (16+ B per instruction) is
        // deliberately not consulted here.
        const PrefixExtent extent = prog.prefixExtent(instructionLimit());
        varReady_.assign(static_cast<std::size_t>(prog.numVariables()), 0);
        valueSlots_ = extent.values;
        valueSlot_ = valueSlots_->slotOf.data();
        valReady_.assign(LANE == Lane::Solo
                             ? valueSlots_->slotOf.size()
                             : static_cast<std::size_t>(valueSlots_->count),
                         0);
        const std::int32_t max_slot =
            std::max<std::int32_t>(1, extent.maxSlot);
        slotReady_.assign(static_cast<std::size_t>(max_slot) + 1, 0);
        scanFree_.assign(static_cast<std::size_t>(cfg_.banks), 0);
    }

    /**
     * Run the program. A leader runs each kLaneChunk instructions,
     * then @p followers (lanes over its tape) replay them. Returns
     * this lane's result; each follower's is its result(). simulate()
     * is the one-lane case: a solo machine, no followers.
     *
     * Deliberately not inlined into runKind(): letting GCC merge the
     * observed and unobserved loops into one stack frame measurably
     * hurt the unobserved loop's register allocation (+50% on the
     * conventional CX handler).
     */
    __attribute__((noinline)) SimResult
    run(const std::vector<SimObserver *> &observers,
        const std::vector<Follower *> &followers = {})
    {
        static_assert(LANE != Lane::Follow, "followers replay: follow()");
        LSQCA_ASSERT(LANE == Lane::Lead || followers.empty(),
                     "only a leader has followers");
        SimResult result;
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
            account(result, inst, step);
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
            if constexpr (LANE == Lane::Lead) {
                // After every kLaneChunk instructions, and after the
                // last, the followers replay what the leader just ran.
                if ((i + 1) % kLaneChunk == 0 || i + 1 == limit) {
                    const Instruction *begin = code + (i - i % kLaneChunk);
                    for (Follower *follower : followers)
                        follower->follow(begin, code + i + 1);
                    tape_.clear();
                }
            }
        }
        if constexpr (OBSERVE)
            endObservation();
        finish(result);
        return result;
    }

    // ---- follower lanes --------------------------------------------------

    /**
     * Replay the chunk [@p first, @p last) the leader just ran, from
     * its tape; a no-op once the lane has diverged.
     */
    __attribute__((noinline)) void
    follow(const Instruction *first, const Instruction *last)
    {
        static_assert(LANE == Lane::Follow, "only followers replay");
        tapePos_ = 0;
        // Accumulate in a local, as run() does, so the sums can stay in
        // registers across the chunk.
        SimResult result = std::move(laneResult_);
        for (; first != last && !diverged_; ++first) {
            const Step step = executeOne(*first);
            account(result, *first, step);
        }
        laneResult_ = std::move(result);
    }

    /** True once this follower lost a row-parallel vote; its
     *  timelines are void from that instruction on. */
    bool
    diverged() const
    {
        return diverged_;
    }

    /** A follower's result after the leader's run() (not diverged). */
    SimResult
    result()
    {
        static_assert(LANE == Lane::Follow, "a leader's comes from run()");
        LSQCA_ASSERT(!diverged_, "a diverged lane has no result");
        SimResult result = std::move(laneResult_);
        finish(result);
        return result;
    }

    /** The tape a follower of this machine replays. */
    const Tape &
    tape() const
    {
        static_assert(LANE == Lane::Lead, "only a leader records");
        return tape_;
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
        std::fill(varReady_.begin(), varReady_.end(), 0);
        std::fill(valReady_.begin(), valReady_.end(), 0);
        std::fill(slotReady_.begin(), slotReady_.end(), 0);
        std::fill(scanFree_.begin(), scanFree_.end(), 0);
        barrier_ = 0;
        rowBatch_ = RowBatch{};
        magicStallCarry_ += magic_.stallBeats();
        magic_ = MagicSource(cfg_.factories, cfg_.effectiveBufferCap(),
                             cfg_.lat.msfPeriod, cfg_.lat.magicTransfer,
                             cfg_.warmBuffer, cfg_.instantMagic);
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
        return magicStallCarry_ + magic_.stallBeats();
    }

    /** Floorplan accounting for this configuration (as run() reports). */
    FloorplanStats
    floorplan() const
    {
        return floorplanStats(cfg_, prog_.numVariables(),
                              numConventional_);
    }

  private:
    // ---- lane accounting -----------------------------------------------

    std::int64_t
    instructionLimit() const
    {
        std::int64_t limit = prog_.size();
        if (opts_.maxInstructions > 0)
            limit = std::min(limit, opts_.maxInstructions);
        return limit;
    }

    /** Fold one executed instruction into @p result. */
    static void
    account(SimResult &result, const Instruction &inst, const Step &step)
    {
        const auto op_idx = static_cast<std::size_t>(inst.op);
        ++result.opcodeCount[op_idx];
        result.opcodeBeats[op_idx] += step.end - step.start;
        result.memoryBeats += step.memoryBeats;
        result.execBeats = std::max(result.execBeats, step.end);
        // Every non-LD/ST instruction enters the CPI denominator.
        result.countedInstructions +=
            inst.op != Opcode::LD && inst.op != Opcode::ST;
    }

    /** Complete an accounted result once the last instruction ran. */
    void
    finish(SimResult &result) const
    {
        result.floorplan = floorplan();
        result.instructionsSimulated = instructionLimit();
        result.cpi = result.countedInstructions == 0
                         ? 0.0
                         : static_cast<double>(result.execBeats) /
                               static_cast<double>(
                                   result.countedInstructions);
        result.magicConsumed = magic_.consumed();
        result.magicStallBeats = magic_.stallBeats();
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
        if constexpr (LANE == Lane::Follow)
            return; // a follower replays its leader's banks
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

    /** @p m's bank; null on a follower, which owns none. */
    Bank *
    bank(std::int32_t m) const
    {
        if constexpr (LANE == Lane::Follow)
            return nullptr;
        else
            return banks_[static_cast<std::size_t>(bankOf(m))].get();
    }

    // Bank-derived values on lanes: a follower owns no banks and takes
    // its leader's value (replayed() is true); any other machine
    // derives the value from its banks, commits, and passes it through
    // recorded(), which a leader appends to its tape. On a solo
    // machine both are constants, so its exec paths compile to plain
    // bank calls.

    /** On a follower, @p value := its leader's next taped value. */
    bool
    replayed(std::int64_t &value)
    {
        if constexpr (LANE == Lane::Follow) {
            value = (*replay_)[tapePos_++];
            return true;
        }
        return false;
    }

    /** @p value, which a leader also appends to its tape. */
    std::int64_t
    recorded(std::int64_t value)
    {
        if constexpr (LANE == Lane::Lead)
            tape_.push_back(value);
        return value;
    }

    // Cost-then-commit pairs against a caller-resolved bank: each exec
    // path looks its bank up once per instruction instead of once per
    // cost/commit call (the dispatch indirection showed up in the
    // point/line simulate() profiles next to the scans themselves).
    // Each helper also owns its latency-split attribution, so every
    // exec path charges the right component without repeating itself
    // (the `if constexpr` strips it from the unobserved instantiation).

    std::int64_t
    takeLoad(Bank *b, std::int32_t m)
    {
        std::int64_t cost = 0;
        if (!replayed(cost)) {
            cost = recorded(b->loadCost(m));
            b->commitLoad(m);
        }
        if constexpr (OBSERVE)
            split_.load += cost;
        return cost;
    }

    std::int64_t
    takeStore(Bank *b, std::int32_t m)
    {
        std::int64_t cost = 0;
        if (!replayed(cost)) {
            cost = recorded(b->storeCost(m, cfg_.localityStore));
            b->commitStore(m, cfg_.localityStore);
        }
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
            std::int64_t cost = 0;
            if (!replayed(cost)) {
                cost = recorded(b->alignCost(m));
                b->commitAlign(m);
            }
            if constexpr (OBSERVE)
                split_.align += cost;
            return cost;
        } else {
            std::int64_t cost = 0;
            if (!replayed(cost)) {
                cost = recorded(b->seekCost(m));
                b->commitSeek(m);
            }
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
            std::int64_t cost = 0;
            if (!replayed(cost)) {
                cost = recorded(b->alignCost(m));
                b->commitAlign(m);
            }
            if constexpr (OBSERVE)
                split_.align += cost;
            return cost;
        } else {
            std::int64_t cost = 0;
            if (!replayed(cost)) {
                cost = recorded(b->fetchToPortCost(m));
                b->commitFetchToPort(m);
            }
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

    /** Consume the pending SK barrier (applies to one instruction). */
    std::int64_t
    takeBarrier()
    {
        const std::int64_t b = barrier_;
        barrier_ = 0;
        return b;
    }

    /**
     * Ready time of classical value @p v. Lanes keep it in the value's
     * slot (ValueSlots), a few int64s per lane instead of 8 B per
     * value; a solo machine indexes by value id and so skips the
     * dependent slot load on every MX/MZ/SK.
     */
    std::int64_t &
    valueReady(std::int32_t v)
    {
        const auto id = static_cast<std::size_t>(v);
        if constexpr (LANE == Lane::Solo)
            return valReady_[id];
        else
            return valReady_[static_cast<std::size_t>(valueSlot_[id])];
    }

    std::int64_t &
    scanFree(std::int32_t m)
    {
        return scanFree_[static_cast<std::size_t>(bankOf(m))];
    }

    // ---- per-opcode execution -------------------------------------------

    Step
    execute(const Instruction &inst)
    {
        switch (inst.op) {
          case Opcode::LD: return execLoad(inst);
          case Opcode::ST: return execStore(inst);
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

    Step
    execLoad(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            // Conventional-region qubits are always register-adjacent.
            const std::int64_t start =
                maxOf(var, slot, takeBarrier());
            var = slot = start;
            return {start, start, 0};
        }
        auto &scan = scanFree(inst.m0);
        const std::int64_t start =
            maxOf(var, slot, scan, takeBarrier());
        const std::int64_t cost =
            takeLoad(bank(inst.m0), inst.m0);
        const std::int64_t end = start + cost;
        var = slot = scan = end;
        return {start, end, cost};
    }

    Step
    execStore(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            const std::int64_t start =
                maxOf(var, slot, takeBarrier());
            var = slot = start;
            return {start, start, 0};
        }
        auto &scan = scanFree(inst.m0);
        const std::int64_t start =
            maxOf(var, slot, scan, takeBarrier());
        const std::int64_t cost =
            takeStore(bank(inst.m0), inst.m0);
        const std::int64_t end = start + cost;
        var = slot = scan = end;
        return {start, end, cost};
    }

    Step
    execPrepC(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t start = std::max(slot, takeBarrier());
        slot = start;
        return {start, start, 0};
    }

    Step
    execMagic(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t req = std::max(slot, takeBarrier());
        const MagicSource::Grant grant = magic_.acquire(req);
        slot = grant.end;
        ++pmExecuted_;
        if constexpr (OBSERVE)
            split_.magicStall += grant.start - req;
        return {grant.start, grant.end, 0};
    }

    Step
    execUnitaryC(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t start = std::max(slot, takeBarrier());
        const std::int64_t beats = inst.op == Opcode::HD_C
                                       ? cfg_.lat.hadamard
                                       : cfg_.lat.phase;
        const std::int64_t end = start + beats;
        slot = end;
        if constexpr (OBSERVE)
            split_.compute += beats;
        return {start, end, 0};
    }

    Step
    execMeasC(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t start = std::max(slot, takeBarrier());
        slot = start;
        valueReady(inst.v0) = start;
        return {start, start, 0};
    }

    Step
    execMeas2C(const Instruction &inst)
    {
        auto &slot0 = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &slot1 = slotReady_[static_cast<std::size_t>(inst.c1)];
        const std::int64_t start =
            maxOf(slot0, slot1, takeBarrier());
        const std::int64_t end = start + cfg_.lat.surgery;
        slot0 = slot1 = end;
        valueReady(inst.v0) = end;
        if constexpr (OBSERVE)
            split_.surgery += cfg_.lat.surgery;
        return {start, end, 0};
    }

    Step
    execSkip(const Instruction &inst)
    {
        const std::int64_t start =
            std::max(valueReady(inst.v0),
                     takeBarrier());
        const std::int64_t end = start + cfg_.lat.skWait;
        barrier_ = end; // gates only the next instruction
        if constexpr (OBSERVE)
            split_.skWait += cfg_.lat.skWait;
        return {start, end, 0};
    }

    Step
    execZeroLatM(const Instruction &inst)
    {
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        const std::int64_t start = std::max(var, takeBarrier());
        var = start;
        if (inst.v0 >= 0)
            valueReady(inst.v0) = start;
        return {start, start, 0};
    }

    Step
    execUnitaryM(const Instruction &inst)
    {
        const std::int64_t beats = inst.op == Opcode::HD_M
                                       ? cfg_.lat.hadamard
                                       : cfg_.lat.phase;
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            const std::int64_t start = std::max(var, takeBarrier());
            const std::int64_t end = start + beats;
            var = end;
            if constexpr (OBSERVE)
                split_.compute += beats;
            return {start, end, 0};
        }
        auto &scan = scanFree(inst.m0);
        Bank *b = bank(inst.m0);

        // Row-parallel unitaries (Sec. V-C): a second H/S whose target
        // shares the currently-open gap-row window executes in the same
        // window for free. Line SAM only — the branch vanishes from the
        // point/conventional instantiations. The window test reads
        // timing, so it is the lane vote (file comment): a follower
        // whose test disagrees with its leader's has diverged.
        std::int32_t row = -1;
        if constexpr (KIND == SamKind::Line) {
            if (cfg_.rowParallelOps && cfg_.inMemoryOps) {
                std::int64_t at = 0;
                if (!replayed(at))
                    at = recorded(b->positionOf(inst.m0).row);
                row = static_cast<std::int32_t>(at);
                const bool window =
                    barrier_ == 0 && rowBatch_.valid &&
                    rowBatch_.op == inst.op &&
                    rowBatch_.bank == bankOf(inst.m0) &&
                    row == rowBatch_.row && var <= rowBatch_.start;
                std::int64_t vote = 0;
                if (!replayed(vote))
                    vote = recorded(window);
                if (vote != window) {
                    diverged_ = true;
                    return {};
                }
                if (window) {
                    var = rowBatch_.end;
                    // A shared window: no split components — the
                    // motion and compute were charged to the opener.
                    return {rowBatch_.start, rowBatch_.end, 0};
                }
            }
        }

        const std::int64_t start = maxOf(var, scan, takeBarrier());
        const std::int64_t motion =
            cfg_.inMemoryOps ? takeInMem1q(b, inst.m0)
                             : takeRoundTrip(b, inst.m0);
        const std::int64_t end = start + motion + beats;
        var = scan = end;
        if constexpr (OBSERVE)
            split_.compute += beats;
        if constexpr (KIND == SamKind::Line) {
            // The align moved the gap, not the target: row still holds.
            if (cfg_.rowParallelOps && cfg_.inMemoryOps) {
                rowBatch_ = {true, inst.op, bankOf(inst.m0), row,
                             start + motion, end};
            }
        }
        return {start, end, motion};
    }

    Step
    execMeas2M(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            const std::int64_t start =
                maxOf(var, slot, takeBarrier());
            const std::int64_t end = start + cfg_.lat.surgery;
            var = slot = end;
            valueReady(inst.v0) = end;
            if constexpr (OBSERVE)
                split_.surgery += cfg_.lat.surgery;
            return {start, end, 0};
        }
        // Concealment (Fig. 1): the scan motion starts as soon as the
        // operand and the scan cell are free; the lattice surgery then
        // begins once BOTH the positioned operand and the CR-side state
        // (e.g. the magic state PM is fetching) are ready. The memory
        // latency hides behind the magic-state wait.
        auto &scan = scanFree(inst.m0);
        Bank *b = bank(inst.m0);
        const std::int64_t motion_start =
            maxOf(var, scan, takeBarrier());
        std::int64_t motion;
        if constexpr (OBSERVE)
            split_.surgery += cfg_.lat.surgery;
        if (cfg_.inMemoryOps) {
            motion = takeInMem2q(b, inst.m0);
            const std::int64_t surgery_start =
                std::max(motion_start + motion, slot);
            const std::int64_t end = surgery_start + cfg_.lat.surgery;
            var = slot = end;
            // Point SAM: the operand is parked at the port, so the scan
            // is free to serve other requests during the magic wait;
            // line SAM must keep the gap row aligned (it is the merge
            // path) until the surgery completes.
            if constexpr (KIND == SamKind::Point)
                scan = motion_start + motion;
            else
                scan = end;
            valueReady(inst.v0) = end;
            return {motion_start, end, motion};
        }
        motion = takeLoad(b, inst.m0);
        const std::int64_t st = takeStore(b, inst.m0);
        const std::int64_t surgery_start =
            std::max(motion_start + motion, slot);
        const std::int64_t end = surgery_start + cfg_.lat.surgery + st;
        var = slot = scan = end;
        valueReady(inst.v0) = end;
        return {motion_start, end, motion + st};
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
        auto &var0 = varReady_[static_cast<std::size_t>(inst.m0)];
        auto &var1 = varReady_[static_cast<std::size_t>(inst.m1)];
        const std::int64_t surgery2 = 2 * cfg_.lat.surgery;
        const bool conv0 = isConv(inst.m0);
        const bool conv1 = isConv(inst.m1);
        if constexpr (OBSERVE)
            split_.surgery += surgery2;

        if (conv0 && conv1) {
            const std::int64_t start =
                maxOf(var0, var1, takeBarrier());
            const std::int64_t end = start + surgery2;
            var0 = var1 = end;
            return {start, end, 0};
        }

        if (conv0 != conv1) {
            const std::int32_t q = conv0 ? inst.m1 : inst.m0;
            auto &scan = scanFree(q);
            Bank *b = bank(q);
            const std::int64_t start =
                maxOf(var0, var1, scan, takeBarrier());
            const std::int64_t motion =
                cfg_.inMemoryOps ? takeInMem2q(b, q)
                                 : takeRoundTrip(b, q);
            const std::int64_t end = start + motion + surgery2;
            var0 = var1 = scan = end;
            return {start, end, motion};
        }

        // Both operands live in SAM.
        auto &scan0 = scanFree(inst.m0);
        auto &scan1 = scanFree(inst.m1);
        Bank *bank0 = bank(inst.m0);
        Bank *bank1 = bank(inst.m1);
        const bool same_bank = bankOf(inst.m0) == bankOf(inst.m1);
        const std::int64_t start =
            maxOf(var0, var1, scan0, scan1, takeBarrier());

        std::int64_t motion;
        std::int64_t end;
        if (!cfg_.inMemoryOps) {
            // Ablation: round-trip both operands through the CR.
            const std::int64_t ld0 = takeLoad(bank0, inst.m0);
            const std::int64_t ld1 = takeLoad(bank1, inst.m1);
            const std::int64_t st0 = takeStore(bank0, inst.m0);
            const std::int64_t st1 = takeStore(bank1, inst.m1);
            motion = ld0 + ld1 + st0 + st1;
            if (same_bank) {
                end = start + motion + surgery2;
            } else {
                end = start + std::max(ld0, ld1) + surgery2 +
                      std::max(st0, st1);
                scan1 = end;
            }
            scan0 = end;
            var0 = var1 = end;
            return {start, end, motion};
        }

        if (same_bank) {
            if constexpr (KIND != SamKind::Line) {
                // Drag both operands to the port region (they stay in
                // memory; locality makes later touches cheap). The
                // port-side surgery itself does not occupy the scan.
                motion = takeInMem2q(bank0, inst.m0);
                motion += takeInMem2q(bank0, inst.m1);
                end = start + motion + surgery2;
                scan0 = start + motion;
                var0 = var1 = end;
                return {start, end, motion};
            } else {
                Bank *b = bank0;
                std::int64_t direct = 0;
                if (cfg_.directSurgery && !replayed(direct))
                    direct = recorded(b->canDirectSurgery(inst.m0, inst.m1));
                if (direct) {
                    // Extension: lattice surgery straight between two
                    // data cells sharing a line; only the gap
                    // repositions.
                    if (!replayed(motion)) {
                        motion = recorded(
                            b->directSurgeryCost(inst.m0, inst.m1));
                        b->commitDirectSurgery(inst.m0, inst.m1);
                    }
                    if constexpr (OBSERVE)
                        split_.align += motion;
                    end = start + motion + surgery2;
                } else {
                    // Sec. VI-A translation rule: load the cheaper
                    // operand into the CR, touch the other in memory,
                    // and store the loaded one back — the
                    // locality-aware store drops it into the partner's
                    // line (Sec. V-B pairing). Each operand's load cost
                    // is computed once and reused for both the
                    // comparison and the commit path.
                    std::int64_t ld0 = 0;
                    std::int64_t ld1 = 0;
                    if (!replayed(ld0))
                        ld0 = recorded(b->loadCost(inst.m0));
                    if (!replayed(ld1))
                        ld1 = recorded(b->loadCost(inst.m1));
                    const bool load0 = ld0 <= ld1;
                    const std::int32_t loaded =
                        load0 ? inst.m0 : inst.m1;
                    const std::int32_t in_mem =
                        load0 ? inst.m1 : inst.m0;
                    const std::int64_t ld = load0 ? ld0 : ld1;
                    if constexpr (LANE != Lane::Follow)
                        b->commitLoad(loaded); // a follower owns no banks
                    if constexpr (OBSERVE)
                        split_.load += ld;
                    const std::int64_t pos =
                        takeInMem2q(b, in_mem);
                    const std::int64_t st = takeStore(b, loaded);
                    motion = ld + pos + st;
                    end = start + motion + surgery2;
                }
            }
            scan0 = end;
        } else {
            // Cross-bank: each bank positions its operand concurrently;
            // the merge path runs through the CR ports. Point scans are
            // released after positioning; line gaps hold their rows.
            const std::int64_t pos0 = takeInMem2q(bank0, inst.m0);
            const std::int64_t pos1 = takeInMem2q(bank1, inst.m1);
            motion = pos0 + pos1;
            end = start + std::max(pos0, pos1) + surgery2;
            if constexpr (KIND == SamKind::Point) {
                scan0 = start + pos0;
                scan1 = start + pos1;
            } else {
                scan0 = end;
                scan1 = end;
            }
        }
        var0 = var1 = end;
        return {start, end, motion};
    }

    const Program &prog_;
    SimOptions opts_;
    ArchConfig cfg_;
    MagicSource magic_;

    std::vector<Region> region_;
    std::vector<std::int32_t> bankOf_;
    std::int64_t numConventional_ = 0;
    std::vector<std::unique_ptr<Bank>> banks_;

    /** An open row-parallel unitary window (line SAM, Sec. V-C). */
    struct RowBatch
    {
        bool valid = false;
        Opcode op = Opcode::HD_M;
        std::int32_t bank = -1;
        std::int32_t row = -1;
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    std::vector<std::int64_t> varReady_;
    std::shared_ptr<const ValueSlots> valueSlots_;
    const std::int32_t *valueSlot_ = nullptr; ///< valueSlots_->slotOf
    std::vector<std::int64_t> valReady_;      ///< see valueReady()
    std::vector<std::int64_t> slotReady_;
    std::vector<std::int64_t> scanFree_;
    std::int64_t barrier_ = 0;
    RowBatch rowBatch_;

    /** PM instructions executed, detailed or fast-forwarded; unlike
     *  MagicSource::consumed() it survives resetTimingEpoch() and
     *  counts in instant-magic mode. */
    std::int64_t pmExecuted_ = 0;
    /** Stall beats from magic sources retired by resetTimingEpoch(). */
    std::int64_t magicStallCarry_ = 0;

    // Lane state. A leader records tape_; a follower replays *replay_
    // from tapePos_, accounts into laneResult_ and stops once diverged_.
    Tape tape_;
    const Tape *replay_ = nullptr;
    std::size_t tapePos_ = 0;
    bool diverged_ = false;
    SimResult laneResult_;

    // Telemetry state, touched only by the OBSERVE instantiation.
    LatencySplit split_;
    std::int64_t curIndex_ = -1;
    std::vector<BankCellEvent> pendingCells_;
    std::vector<std::unique_ptr<CellRecorder>> recorders_;
};

} // namespace lsqca::detail

#endif // LSQCA_SIM_MACHINE_H
