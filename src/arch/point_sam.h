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
 */

#include <cstdint>
#include <vector>

#include "arch/config.h"
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

} // namespace lsqca

#endif // LSQCA_ARCH_POINT_SAM_H
