#ifndef LSQCA_ARCH_LINE_SAM_H
#define LSQCA_ARCH_LINE_SAM_H

/**
 * @file
 * Line-SAM bank model (Sec. IV-C3): H data rows and one empty scan row
 * (the "gap") that shifts vertically, one beat per row, until it faces
 * the target's row; the target then moves into the gap and slides along
 * it to the CR with a constant-latency long-range move.
 *
 * The gap is modeled as an index g in [0, H] between data rows: shifting
 * it costs |Δg| beats while data rows keep their logical identity (the
 * physical cells shift; the contents' relative order is preserved).
 *
 * The cost and commit methods the simulator calls per instruction are
 * defined in this header, below the class; construction and initial
 * placement stay in line_sam.cpp.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arch/config.h"
#include "common/error.h"
#include "geom/grid.h"

namespace lsqca {

/** One line-SAM bank: row-organized occupancy + gap + cost model. */
class LineSamBank
{
  public:
    /**
     * Build a bank for @p capacity >= 1 qubits on the lineDataGrid()
     * data grid (arch/floorplan.h); the gap starts at 0 (facing the
     * first row).
     */
    LineSamBank(std::int32_t capacity, const Latencies &lat);

    std::int32_t capacity() const { return capacity_; }
    std::int32_t occupancy() const { return grid_.occupiedCount(); }
    std::int32_t dataRows() const { return grid_.rows(); }
    std::int32_t cols() const { return grid_.cols(); }
    std::int32_t gap() const { return gap_; }
    bool holds(QubitId q) const { return grid_.find(q).has_value(); }
    Coord positionOf(QubitId q) const { return grid_.locate(q); }

    /** Read-only occupancy view (telemetry: initial-layout snapshots). */
    const OccupancyGrid &grid() const { return grid_; }

    /**
     * Bank event hook: forward every data-cell occupy/vacate
     * (commitLoad, commitStore incl. the makeRoomAt insertion) to
     * @p listener; nullptr detaches. Borrowed, not owned. Gap motion
     * is not a cell event — rows keep their logical identity.
     */
    void setCellListener(CellListener *listener)
    {
        grid_.setCellListener(listener);
    }

    /** Place @p vars row-major (their original "home" cells). */
    void placeInitial(const std::vector<QubitId> &vars);

    /** Beats to align the gap next to row @p row. */
    std::int64_t alignCostToRow(std::int32_t row) const;

    /** Beats to align the gap next to @p q's row (in-memory ops). */
    std::int64_t alignCost(QubitId q) const;

    /** Move the gap adjacent to @p q's row. */
    void commitAlign(QubitId q);

    /** Beats to bring @p q from SAM into a CR register cell. */
    std::int64_t loadCost(QubitId q) const;

    /** Apply the load: @p q leaves; the gap faces its old row. */
    void commitLoad(QubitId q);

    /**
     * Beats to store a qubit from CR. Locality-aware stores pick a
     * gap-adjacent row (same line as recently touched qubits) at the
     * CR-nearest free column; otherwise the original home cell.
     */
    std::int64_t storeCost(QubitId q, bool locality) const;

    /** Apply the store; returns the destination cell. */
    Coord commitStore(QubitId q, bool locality);

    /**
     * Whether @p a and @p b can merge directly (ArchConfig::directSurgery
     * extension): same row or vertically adjacent rows, so one gap
     * position touches both.
     */
    bool canDirectSurgery(QubitId a, QubitId b) const;

    /** Gap shifts to reach the surgery position for a direct merge. */
    std::int64_t directSurgeryCost(QubitId a, QubitId b) const;

    /** Park the gap at the direct-surgery position. */
    void commitDirectSurgery(QubitId a, QubitId b);

  private:
    struct StorePlan
    {
        Coord dest;
        /**
         * The empty cell commitStore's makeRoomAt walk starts from: the
         * nearest empty cell to @c dest (@c dest itself when empty), so
         * the commit does not search for it again.
         */
        Coord hole;
        std::int64_t shifts;
    };
    StorePlan storePlan(QubitId q, bool locality) const;
    std::int32_t nearerGapSide(std::int32_t row) const;

    /** Home cell of @p q; {-1,-1} when never stored (flat by QubitId,
     *  as PointSamBank::homes_). */
    Coord &homeSlot(QubitId q);

    std::int32_t capacity_;
    Latencies lat_;
    OccupancyGrid grid_; ///< data rows only; the gap is bookkept aside
    std::int32_t gap_ = 0;
    std::vector<Coord> homes_;

    /**
     * Memo for storePlan: storeCost and commitStore ask for the same
     * plan back to back. The plan depends on the grid contents and on
     * the gap position (locality targets the gap-adjacent row, home
     * stores pay gap shifts), so the key is (qubit, locality,
     * OccupancyGrid::version(), gap).
     */
    struct PlanCache
    {
        std::uint64_t version = 0;
        QubitId q = kNoQubit;
        bool locality = false;
        std::int32_t gap = -1;
        StorePlan plan{};
    };
    mutable PlanCache planCache_;
};

inline Coord &
LineSamBank::homeSlot(QubitId q)
{
    LSQCA_ASSERT(q >= 0, "invalid qubit id");
    const auto idx = static_cast<std::size_t>(q);
    if (idx >= homes_.size())
        homes_.resize(idx + 1, Coord{-1, -1});
    return homes_[idx];
}

inline std::int64_t
LineSamBank::alignCostToRow(std::int32_t row) const
{
    // Gap positions adjacent to row r are g == r (above) and g == r + 1
    // (below); each gap shift is one whole-row move (one beat).
    const std::int64_t above = std::abs(gap_ - row);
    const std::int64_t below = std::abs(gap_ - (row + 1));
    return std::min(above, below) * lat_.move;
}

inline std::int32_t
LineSamBank::nearerGapSide(std::int32_t row) const
{
    return std::abs(gap_ - row) <= std::abs(gap_ - (row + 1)) ? row
                                                              : row + 1;
}

inline std::int64_t
LineSamBank::alignCost(QubitId q) const
{
    return alignCostToRow(grid_.locate(q).row);
}

inline void
LineSamBank::commitAlign(QubitId q)
{
    gap_ = nearerGapSide(grid_.locate(q).row);
}

inline std::int64_t
LineSamBank::loadCost(QubitId q) const
{
    // Align + step into the gap row + long-range slide into the CR.
    return alignCost(q) + lat_.move + lat_.longMove;
}

inline void
LineSamBank::commitLoad(QubitId q)
{
    gap_ = nearerGapSide(grid_.remove(q).row);
}

inline bool
LineSamBank::canDirectSurgery(QubitId a, QubitId b) const
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    return std::abs(ra - rb) <= 1;
}

inline std::int64_t
LineSamBank::directSurgeryCost(QubitId a, QubitId b) const
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    if (ra == rb)
        return alignCostToRow(ra);
    // Adjacent rows: the gap slots exactly between them.
    const std::int32_t between = std::max(ra, rb);
    return std::abs(gap_ - between) * lat_.move;
}

inline void
LineSamBank::commitDirectSurgery(QubitId a, QubitId b)
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    gap_ = ra == rb ? nearerGapSide(ra) : std::max(ra, rb);
}

inline LineSamBank::StorePlan
LineSamBank::storePlan(QubitId q, bool locality) const
{
    if (planCache_.q == q && planCache_.locality == locality &&
        planCache_.version == grid_.version() && planCache_.gap == gap_)
        return planCache_.plan;
    StorePlan plan;
    if (!locality) {
        LSQCA_ASSERT(q >= 0 &&
                         static_cast<std::size_t>(q) < homes_.size() &&
                         homes_[static_cast<std::size_t>(q)].row >= 0,
                     "qubit has no home cell in bank");
        Coord dest = homes_[static_cast<std::size_t>(q)];
        if (!grid_.isEmptyCell(dest)) {
            const auto near = grid_.nearestEmpty(dest);
            LSQCA_ASSERT(near.has_value(), "line-SAM bank is full");
            dest = *near;
        }
        plan = {dest, dest, alignCostToRow(dest.row) / lat_.move};
    } else {
        // Locality-aware: drop into a row adjacent to the current gap
        // (the hot line); the in-flight qubit's hole slides there via
        // the makeRoomAt insertion, so no gap shifts are needed.
        //
        // The hole h nearest (row, 0) is also the one nearest
        // dest = (row, h.col): an empty cell closer to dest would be
        // closer to (row, 0) too, and both searches break ties by row,
        // then column. So the commit walks from h without a second
        // search.
        const std::int32_t row =
            gap_ < grid_.rows() ? gap_ : grid_.rows() - 1;
        const auto hole = grid_.nearestEmpty({row, 0});
        LSQCA_ASSERT(hole.has_value(), "line-SAM bank is full");
        plan = {Coord{row, hole->col}, *hole, 0};
    }
    planCache_ = {grid_.version(), q, locality, gap_, plan};
    return plan;
}

inline std::int64_t
LineSamBank::storeCost(QubitId q, bool locality) const
{
    const StorePlan plan = storePlan(q, locality);
    // Slide from the CR along the gap row, then drop into the target
    // row (after any gap shifts).
    return plan.shifts * lat_.move + lat_.longMove + lat_.move;
}

inline Coord
LineSamBank::commitStore(QubitId q, bool locality)
{
    const StorePlan plan = storePlan(q, locality);
    grid_.makeRoomAt(plan.dest, plan.hole);
    grid_.place(q, plan.dest);
    Coord &home = homeSlot(q);
    if (home.row < 0)
        home = plan.dest;
    gap_ = nearerGapSide(plan.dest.row);
    return plan.dest;
}

} // namespace lsqca

#endif // LSQCA_ARCH_LINE_SAM_H
