#ifndef LSQCA_GEOM_GRID_H
#define LSQCA_GEOM_GRID_H

/**
 * @file
 * Occupancy grid for a SAM bank: which cell holds which logical qubit,
 * where the empty (auxiliary) cells are, and nearest-empty queries used by
 * the locality-aware store policy.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.h"
#include "geom/coord.h"
#include "geom/occupancy_index.h"

namespace lsqca {

/** Identifier of a logical qubit (program-level variable index). */
using QubitId = std::int32_t;

/** Sentinel for "no qubit". */
inline constexpr QubitId kNoQubit = -1;

/**
 * Mutation hook for an OccupancyGrid: every place/remove/relocate is
 * reported as the cell-level occupy/vacate pair it is (a relocate
 * vacates the source and occupies the destination, so the makeRoomAt
 * hole walk reports each shifted occupant). Detached by default; the
 * simulator attaches one per bank only while observers are present, so
 * the unobserved path pays a single never-taken branch per mutation.
 */
class CellListener
{
  public:
    virtual ~CellListener() = default;
    virtual void onCellOccupied(QubitId q, const Coord &c) = 0;
    virtual void onCellVacated(QubitId q, const Coord &c) = 0;
};

/**
 * Dense rows × cols occupancy grid.
 *
 * Cells hold either a QubitId or are empty (auxiliary). The grid offers
 * placement, removal, relocation, and nearest-empty search; it does not
 * know about scan cells or latency — that policy lives in src/arch.
 *
 * Nearest-empty queries are served by an incrementally maintained
 * OccupancyIndex (updated on every place/remove/relocate, and twice
 * per makeRoomAt walk) instead of a full-grid scan; results are
 * bit-identical to the scan, including tie-breaking. A monotonic
 * version() counter bumps on every mutation so callers (the bank cost
 * models) can cache derived lookups and invalidate them precisely.
 *
 * The accessors, mutations and queries the bank models call per
 * simulated instruction are defined in this header, below the class;
 * construction and emptyCells() stay in grid.cpp.
 */
class OccupancyGrid
{
  public:
    /** Create an all-empty grid. @pre rows, cols > 0 */
    OccupancyGrid(std::int32_t rows, std::int32_t cols);

    std::int32_t rows() const { return rows_; }
    std::int32_t cols() const { return cols_; }
    std::int32_t cellCount() const { return rows_ * cols_; }

    /** Whether @p c lies inside the grid. */
    bool
    contains(const Coord &c) const
    {
        return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
    }

    /** Qubit at cell @p c, or kNoQubit. @pre contains(c) */
    QubitId at(const Coord &c) const;

    bool isEmptyCell(const Coord &c) const { return at(c) == kNoQubit; }

    /** Number of occupied cells. */
    std::int32_t occupiedCount() const { return occupied_; }

    /** Number of empty cells. */
    std::int32_t emptyCount() const { return cellCount() - occupied_; }

    /** Place qubit @p q at empty cell @p c. @pre cell empty, q unplaced */
    void place(QubitId q, const Coord &c);

    /** Remove qubit @p q from the grid; its cell becomes empty. */
    Coord remove(QubitId q);

    /** Move qubit @p q to empty cell @p to. @pre to is empty */
    void relocate(QubitId q, const Coord &to);

    /** Position of qubit @p q, if placed. */
    std::optional<Coord> find(QubitId q) const;

    /** Position of qubit @p q. @pre q is placed */
    Coord locate(QubitId q) const;

    /**
     * Empty cell minimizing manhattan distance to @p target; nullopt
     * when the grid is full.
     *
     * Tie-breaking contract (pinned by tests/geom/grid_test.cpp and the
     * reference-oracle harness): among equal-distance candidates the
     * smallest row wins, and within that row the smallest column — the
     * first candidate a row-major scan with a strict "closer than best"
     * comparison would keep. The bank cost models depend on this order
     * being stable, so it is part of the API, not an implementation
     * detail.
     */
    std::optional<Coord> nearestEmpty(const Coord &target) const;

    /**
     * Empty cell in row @p row minimizing |col - target_col|, or nullopt
     * when the row is full. Equal-distance ties break toward the
     * smaller column (same scan-order contract as nearestEmpty).
     */
    std::optional<Coord> nearestEmptyInRow(std::int32_t row,
                                           std::int32_t target_col) const;

    /** All empty cells, row-major order. */
    std::vector<Coord> emptyCells() const;

    /**
     * Vacate cell @p dest by walking the nearest hole to it along a
     * Manhattan path (rows first), shifting each intervening occupant
     * one step toward the old hole — the sliding-puzzle insertion used
     * by locality-aware placement in a near-full memory.
     *
     * Every shifted occupant is reported to the listener as its own
     * vacate/occupy pair, in walk order. The empty-cell index is told
     * only about the two ends: the walk fills the hole and empties
     * @p dest, and every cell between stays occupied.
     *
     * @return the number of hole steps (0 when @p dest was empty).
     * @pre the grid has at least one empty cell.
     */
    std::int32_t makeRoomAt(const Coord &dest);

    /**
     * makeRoomAt(@p dest) for a caller that already holds the hole the
     * walk starts from, saving the nearest-empty search.
     * @pre @p hole == nearestEmpty(@p dest): every cell of the walk
     * after @p hole is occupied (a ConfigError otherwise).
     */
    std::int32_t makeRoomAt(const Coord &dest, const Coord &hole);

    /**
     * Monotonic mutation counter: bumped by place/remove/relocate, and
     * once by each makeRoomAt walk that moves an occupant. Cache
     * derived lookups keyed on this to invalidate them exactly when the
     * occupancy changes.
     */
    std::uint64_t version() const { return version_; }

    /**
     * Attach (or detach, with nullptr) the cell-event listener. The
     * grid does not own it; the caller keeps it alive while attached.
     */
    void setCellListener(CellListener *listener)
    {
        listener_ = listener;
    }

  private:
    std::size_t index(const Coord &c) const;

    /** Walk the hole at @p hole to @p dest (see makeRoomAt). */
    std::int32_t walkHole(const Coord &hole, const Coord &dest);

    /** positions_ slot for @p q, grown on demand; {-1,-1} = unplaced. */
    Coord &positionSlot(QubitId q);

    /** Grow positions_ to @p size unplaced slots (cold path). */
    void growPositions(std::size_t size);

    std::int32_t rows_;
    std::int32_t cols_;
    std::int32_t occupied_ = 0;
    std::uint64_t version_ = 0;
    std::vector<QubitId> cells_;
    /**
     * Qubit -> cell, indexed by QubitId (program variable indices are
     * dense, so a flat vector beats the hash map this replaced: the
     * position lookup is the single hottest operation in both the
     * detailed and fast-forward commit paths). row == -1 = unplaced.
     */
    std::vector<Coord> positions_;
    OccupancyIndex empties_;
    CellListener *listener_ = nullptr;
};

inline std::size_t
OccupancyGrid::index(const Coord &c) const
{
    LSQCA_ASSERT(contains(c), "grid coordinate out of range");
    return static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_)
           + static_cast<std::size_t>(c.col);
}

inline QubitId
OccupancyGrid::at(const Coord &c) const
{
    return cells_[index(c)];
}

inline Coord &
OccupancyGrid::positionSlot(QubitId q)
{
    LSQCA_REQUIRE(q >= 0, "invalid qubit id");
    const auto idx = static_cast<std::size_t>(q);
    if (idx >= positions_.size())
        growPositions(idx + 1);
    return positions_[idx];
}

inline void
OccupancyGrid::place(QubitId q, const Coord &c)
{
    LSQCA_REQUIRE(q != kNoQubit, "cannot place the sentinel qubit");
    Coord &slot = positionSlot(q);
    LSQCA_REQUIRE(slot.row < 0, "qubit already placed");
    auto &cell = cells_[index(c)];
    LSQCA_REQUIRE(cell == kNoQubit, "cell already occupied");
    cell = q;
    slot = c;
    empties_.onOccupy(c);
    ++occupied_;
    ++version_;
    if (listener_)
        listener_->onCellOccupied(q, c);
}

inline Coord
OccupancyGrid::remove(QubitId q)
{
    Coord &slot = positionSlot(q);
    LSQCA_REQUIRE(slot.row >= 0, "qubit not placed");
    const Coord c = slot;
    cells_[index(c)] = kNoQubit;
    slot = Coord{-1, -1};
    empties_.onVacate(c);
    --occupied_;
    ++version_;
    if (listener_)
        listener_->onCellVacated(q, c);
    return c;
}

inline void
OccupancyGrid::relocate(QubitId q, const Coord &to)
{
    auto &dest = cells_[index(to)];
    LSQCA_REQUIRE(dest == kNoQubit, "relocate destination occupied");
    Coord &slot = positionSlot(q);
    LSQCA_REQUIRE(slot.row >= 0, "qubit not placed");
    const Coord from = slot;
    cells_[index(from)] = kNoQubit;
    dest = q;
    slot = to;
    empties_.onVacate(from);
    empties_.onOccupy(to);
    ++version_;
    if (listener_) {
        listener_->onCellVacated(q, from);
        listener_->onCellOccupied(q, to);
    }
}

inline std::optional<Coord>
OccupancyGrid::find(QubitId q) const
{
    const auto idx = static_cast<std::size_t>(q);
    if (q < 0 || idx >= positions_.size() || positions_[idx].row < 0)
        return std::nullopt;
    return positions_[idx];
}

inline Coord
OccupancyGrid::locate(QubitId q) const
{
    // Not via find(): GCC 12 round-trips the std::optional<Coord>
    // through the stack with overlapping partial stores, and every bank
    // cost call locates its operand.
    const auto idx = static_cast<std::size_t>(q);
    LSQCA_REQUIRE(q >= 0 && idx < positions_.size() &&
                      positions_[idx].row >= 0,
                  "qubit not placed in grid");
    return positions_[idx];
}

inline std::optional<Coord>
OccupancyGrid::nearestEmpty(const Coord &target) const
{
    return empties_.nearestEmpty(target);
}

inline std::optional<Coord>
OccupancyGrid::nearestEmptyInRow(std::int32_t row,
                                 std::int32_t target_col) const
{
    return empties_.nearestEmptyInRow(row, target_col);
}

inline std::int32_t
OccupancyGrid::walkHole(const Coord &hole, const Coord &dest)
{
    // The listener check is hoisted out of the walk: the virtual
    // notification call could touch anything, so keeping it inside
    // forces a listener_ reload per shifted occupant and cost the
    // unobserved hole walk ~13% (bank/point/storeCost kernel).
    CellListener *const listener = listener_;
    Coord cur = hole;
    // Both ends lie in the grid, so every cell of the rows-first path
    // does too: the walk steps the flat cell index directly.
    std::size_t cur_cell = index(hole);
    auto shift = [&](Coord next, std::size_t next_cell) {
        const QubitId occupant = cells_[next_cell];
        LSQCA_REQUIRE(occupant != kNoQubit,
                      "makeRoomAt: an empty cell lies between the hole "
                      "and the destination");
        // relocate()'s checks, on the cells the walk already knows.
        LSQCA_REQUIRE(cells_[cur_cell] == kNoQubit,
                      "relocate destination occupied");
        Coord &slot = positionSlot(occupant);
        LSQCA_REQUIRE(slot.row >= 0, "qubit not placed");
        cells_[cur_cell] = occupant;
        cells_[next_cell] = kNoQubit;
        slot = cur;
        if (listener) {
            listener->onCellVacated(occupant, next);
            listener->onCellOccupied(occupant, cur);
        }
        cur = next;
        cur_cell = next_cell;
    };
    const std::int32_t row_step = dest.row > cur.row ? 1 : -1;
    const std::ptrdiff_t row_stride =
        row_step * static_cast<std::ptrdiff_t>(cols_);
    while (cur.row != dest.row)
        shift({cur.row + row_step, cur.col}, cur_cell + row_stride);
    const std::int32_t col_step = dest.col > cur.col ? 1 : -1;
    while (cur.col != dest.col)
        shift({cur.row, cur.col + col_step}, cur_cell + col_step);
    const std::int32_t steps = manhattan(hole, dest);
    if (steps > 0) {
        // Each occupant on the path moved one cell toward the hole, so
        // only the two ends changed state: the hole is filled and the
        // destination is empty.
        empties_.onOccupy(hole);
        empties_.onVacate(dest);
        ++version_;
    }
    return steps;
}

inline std::int32_t
OccupancyGrid::makeRoomAt(const Coord &dest)
{
    LSQCA_REQUIRE(contains(dest), "makeRoomAt target out of range");
    if (isEmptyCell(dest))
        return 0;
    const auto hole = nearestEmpty(dest);
    LSQCA_REQUIRE(hole.has_value(), "makeRoomAt on a full grid");
    return walkHole(*hole, dest);
}

inline std::int32_t
OccupancyGrid::makeRoomAt(const Coord &dest, const Coord &hole)
{
    LSQCA_REQUIRE(contains(dest) && contains(hole),
                  "makeRoomAt cell out of range");
    LSQCA_REQUIRE(isEmptyCell(hole), "makeRoomAt hole is occupied");
    return walkHole(hole, dest);
}

} // namespace lsqca

#endif // LSQCA_GEOM_GRID_H
