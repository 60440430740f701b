#ifndef LSQCA_ARCH_POINT_SAM_H
#define LSQCA_ARCH_POINT_SAM_H

/**
 * @file
 * Point-SAM bank model (Sec. IV-C2): a near-full occupancy grid with a
 * single auxiliary scan cell. Loads work like a sliding puzzle — seek the
 * scan hole to the target, then pick the target cell toward the port with
 * diagonal/straight compound moves whose cost drops when a second empty
 * cell is available.
 *
 * The model tracks real cell occupancy and a virtual scan-hole position;
 * DESIGN.md §4.2 documents the (small) approximations versus a full
 * sliding-puzzle permutation simulation.
 *
 * The cost and commit methods the simulator calls per instruction are
 * defined in this header, below the class; construction and initial
 * placement stay in point_sam.cpp.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arch/config.h"
#include "common/error.h"
#include "geom/grid.h"

namespace lsqca {

/** One point-SAM bank: occupancy grid + scan cell + cost model. */
class PointSamBank
{
  public:
    /**
     * Build a bank for @p capacity >= 1 qubits on the pointBankGrid()
     * grid (arch/floorplan.h); the scan cell starts at the port anchor
     * (CR-adjacent column, middle row).
     */
    PointSamBank(std::int32_t capacity, const Latencies &lat);

    std::int32_t capacity() const { return capacity_; }
    std::int32_t occupancy() const { return grid_.occupiedCount(); }
    std::int32_t rows() const { return grid_.rows(); }
    std::int32_t cols() const { return grid_.cols(); }
    Coord scanPosition() const { return scan_; }
    Coord portAnchor() const { return port_; }
    bool holds(QubitId q) const { return grid_.find(q).has_value(); }
    Coord positionOf(QubitId q) const { return grid_.locate(q); }

    /** Read-only occupancy view (telemetry: initial-layout snapshots). */
    const OccupancyGrid &grid() const { return grid_; }

    /**
     * Bank event hook: forward every cell occupy/vacate (commitLoad,
     * commitStore incl. the makeRoomAt hole walk, commitFetchToPort)
     * to @p listener; nullptr detaches. Borrowed, not owned.
     */
    void setCellListener(CellListener *listener)
    {
        grid_.setCellListener(listener);
    }

    /** Place @p vars row-major (their original "home" cells). */
    void placeInitial(const std::vector<QubitId> &vars);

    /** Beats to bring @p q from SAM into a CR register cell. */
    std::int64_t loadCost(QubitId q) const;

    /** Apply the load: @p q leaves the bank; the scan ends at the port. */
    void commitLoad(QubitId q);

    /**
     * Beats to store a qubit from CR into the bank. Locality-aware
     * stores take the empty cell nearest the port; otherwise the
     * original home cell (or nearest empty to it).
     */
    std::int64_t storeCost(QubitId q, bool locality) const;

    /** Apply the store; returns the destination cell. */
    Coord commitStore(QubitId q, bool locality);

    /** Beats for the scan hole to reach @p q (in-memory 1q ops). */
    std::int64_t seekCost(QubitId q) const;

    /** Scan ends adjacent to @p q. */
    void commitSeek(QubitId q);

    /**
     * Beats to drag @p q to the port for an in-memory two-qubit op
     * (a load minus the final CR-entry move, Sec. V-C).
     */
    std::int64_t fetchToPortCost(QubitId q) const;

    /** @p q relocates to the empty cell nearest the port.
     *
     * Unlike line SAM there is no direct data-data surgery in a dense
     * point SAM: two-qubit operands always route via the port (the
     * paper's Sec. V-C: in-memory ops "skip the pick into the CR", not
     * the pick to the port). */
    void commitFetchToPort(QubitId q);

  private:
    Coord homeOrNearest(QubitId q) const;
    Coord storeDestination(QubitId q, bool locality) const;
    std::int64_t pickCost(const Coord &from, const Coord &to) const;
    /** seekCost() for a qubit already located at @p pos, so a cost
     *  that also picks the qubit looks it up once. */
    std::int64_t seekCostTo(const Coord &pos) const;

    /** Home cell of @p q; {-1,-1} when never stored (flat by QubitId,
     *  same layout argument as OccupancyGrid::positions_). */
    Coord &homeSlot(QubitId q);

    std::int32_t capacity_;
    Latencies lat_;
    OccupancyGrid grid_;
    Coord scan_;
    Coord port_;
    std::vector<Coord> homes_;

    /**
     * Memo for homeOrNearest: the cost model asks for the same
     * destination twice per store (storeCost then commitStore), and the
     * answer only changes when the grid mutates — keyed on
     * OccupancyGrid::version() so invalidation is exact.
     */
    struct HomeCache
    {
        std::uint64_t version = 0;
        QubitId q = kNoQubit;
        Coord dest;
    };
    mutable HomeCache homeCache_;
};

inline Coord &
PointSamBank::homeSlot(QubitId q)
{
    LSQCA_ASSERT(q >= 0, "invalid qubit id");
    const auto idx = static_cast<std::size_t>(q);
    if (idx >= homes_.size())
        homes_.resize(idx + 1, Coord{-1, -1});
    return homes_[idx];
}

inline std::int64_t
PointSamBank::pickCost(const Coord &from, const Coord &to) const
{
    const std::int32_t dr = std::abs(from.row - to.row);
    const std::int32_t dc = std::abs(from.col - to.col);
    const std::int32_t diag = std::min(dr, dc);
    const std::int32_t straight = std::max(dr, dc) - diag;
    const bool two_empty = grid_.emptyCount() >= 2;
    const std::int64_t diag_cost =
        two_empty ? lat_.pickDiagonal2 : lat_.pickDiagonal1;
    const std::int64_t straight_cost =
        two_empty ? lat_.pickStraight2 : lat_.pickStraight1;
    return diag * diag_cost + straight * straight_cost;
}

inline std::int64_t
PointSamBank::seekCostTo(const Coord &pos) const
{
    const std::int64_t dist = manhattan(scan_, pos);
    return std::max<std::int64_t>(0, dist - 1) * lat_.move;
}

inline std::int64_t
PointSamBank::seekCost(QubitId q) const
{
    return seekCostTo(grid_.locate(q));
}

inline void
PointSamBank::commitSeek(QubitId q)
{
    scan_ = grid_.locate(q);
}

inline std::int64_t
PointSamBank::loadCost(QubitId q) const
{
    const Coord pos = grid_.locate(q);
    return seekCostTo(pos) + pickCost(pos, port_) + lat_.move;
}

inline void
PointSamBank::commitLoad(QubitId q)
{
    grid_.remove(q);
    scan_ = port_;
}

inline Coord
PointSamBank::homeOrNearest(QubitId q) const
{
    if (homeCache_.q == q && homeCache_.version == grid_.version())
        return homeCache_.dest;
    LSQCA_ASSERT(q >= 0 &&
                     static_cast<std::size_t>(q) < homes_.size() &&
                     homes_[static_cast<std::size_t>(q)].row >= 0,
                 "qubit has no home cell in bank");
    Coord dest = homes_[static_cast<std::size_t>(q)];
    if (!grid_.isEmptyCell(dest)) {
        const auto near = grid_.nearestEmpty(dest);
        LSQCA_ASSERT(near.has_value(), "point-SAM bank is full");
        dest = *near;
    }
    homeCache_ = {grid_.version(), q, dest};
    return dest;
}

inline Coord
PointSamBank::storeDestination(QubitId q, bool locality) const
{
    if (!locality)
        return homeOrNearest(q);
    // Locality-aware: the newest qubit lands right at the port; older
    // occupants slide one step outward (makeRoomAt at commit).
    return port_;
}

inline std::int64_t
PointSamBank::storeCost(QubitId q, bool locality) const
{
    const Coord dest = storeDestination(q, locality);
    return lat_.move + pickCost(port_, dest);
}

inline Coord
PointSamBank::commitStore(QubitId q, bool locality)
{
    const Coord dest = storeDestination(q, locality);
    grid_.makeRoomAt(dest);
    grid_.place(q, dest);
    Coord &home = homeSlot(q);
    if (home.row < 0)
        home = dest;
    scan_ = dest; // the escorting hole ends next to the stored cell
    return dest;
}

inline std::int64_t
PointSamBank::fetchToPortCost(QubitId q) const
{
    const Coord pos = grid_.locate(q);
    return seekCostTo(pos) + pickCost(pos, port_);
}

inline void
PointSamBank::commitFetchToPort(QubitId q)
{
    // The fetched qubit takes the port cell; the previous occupant (and
    // the chain behind it) slides one step toward the freed cell — the
    // LRU-like stack that keeps the hot working set port-adjacent.
    grid_.remove(q);
    grid_.makeRoomAt(port_);
    grid_.place(q, port_);
    scan_ = port_;
}

} // namespace lsqca

#endif // LSQCA_ARCH_POINT_SAM_H
