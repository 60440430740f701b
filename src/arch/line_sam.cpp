#include "arch/line_sam.h"

#include <cmath>
#include <limits>

#include "arch/floorplan.h"
#include "common/error.h"

namespace lsqca {

LineSamBank::LineSamBank(std::int32_t capacity, const Latencies &lat)
    : capacity_(capacity), lat_(lat),
      grid_(lineDataGrid(capacity).rows, lineDataGrid(capacity).cols)
{
}

void
LineSamBank::placeInitial(const std::vector<QubitId> &vars)
{
    LSQCA_REQUIRE(static_cast<std::int32_t>(vars.size()) <= capacity_,
                  "line-SAM bank over capacity");
    std::size_t next = 0;
    for (std::int32_t r = 0; r < grid_.rows() && next < vars.size(); ++r) {
        for (std::int32_t c = 0; c < grid_.cols() && next < vars.size();
             ++c) {
            grid_.place(vars[next], {r, c});
            homes_.emplace(vars[next], Coord{r, c});
            ++next;
        }
    }
    LSQCA_ASSERT(next == vars.size(), "initial placement did not fit");
}

std::int64_t
LineSamBank::alignCostToRow(std::int32_t row) const
{
    // Gap positions adjacent to row r are g == r (above) and g == r + 1
    // (below); each gap shift is one whole-row move (one beat).
    const std::int64_t above = std::abs(gap_ - row);
    const std::int64_t below = std::abs(gap_ - (row + 1));
    return std::min(above, below) * lat_.move;
}

std::int32_t
LineSamBank::nearerGapSide(std::int32_t row) const
{
    return std::abs(gap_ - row) <= std::abs(gap_ - (row + 1)) ? row
                                                              : row + 1;
}

std::int64_t
LineSamBank::alignCost(QubitId q) const
{
    return alignCostToRow(grid_.locate(q).row);
}

void
LineSamBank::commitAlign(QubitId q)
{
    gap_ = nearerGapSide(grid_.locate(q).row);
}

std::int64_t
LineSamBank::loadCost(QubitId q) const
{
    // Align + step into the gap row + long-range slide into the CR.
    return alignCost(q) + lat_.move + lat_.longMove;
}

void
LineSamBank::commitLoad(QubitId q)
{
    const Coord pos = grid_.locate(q);
    gap_ = nearerGapSide(pos.row);
    grid_.remove(q);
}

bool
LineSamBank::canDirectSurgery(QubitId a, QubitId b) const
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    return std::abs(ra - rb) <= 1;
}

std::int64_t
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

void
LineSamBank::commitDirectSurgery(QubitId a, QubitId b)
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    gap_ = ra == rb ? nearerGapSide(ra) : std::max(ra, rb);
}

LineSamBank::StorePlan
LineSamBank::storePlan(QubitId q, bool locality) const
{
    if (planCache_.q == q && planCache_.locality == locality &&
        planCache_.version == grid_.version() && planCache_.gap == gap_)
        return planCache_.plan;
    StorePlan plan;
    if (!locality) {
        const auto it = homes_.find(q);
        LSQCA_ASSERT(it != homes_.end(), "qubit has no home cell in bank");
        if (grid_.isEmptyCell(it->second)) {
            plan = {it->second,
                    alignCostToRow(it->second.row) / lat_.move};
        } else {
            const auto near = grid_.nearestEmpty(it->second);
            LSQCA_ASSERT(near.has_value(), "line-SAM bank is full");
            plan = {*near, alignCostToRow(near->row) / lat_.move};
        }
    } else {
        // Locality-aware: drop into a row adjacent to the current gap
        // (the hot line); the in-flight qubit's hole slides there via
        // the makeRoomAt insertion, so no gap shifts are needed.
        const std::int32_t row =
            gap_ < grid_.rows() ? gap_ : grid_.rows() - 1;
        const auto hole = grid_.nearestEmpty({row, 0});
        LSQCA_ASSERT(hole.has_value(), "line-SAM bank is full");
        plan = {Coord{row, hole->col}, 0};
    }
    planCache_ = {grid_.version(), q, locality, gap_, plan};
    return plan;
}

std::int64_t
LineSamBank::storeCost(QubitId q, bool locality) const
{
    const StorePlan plan = storePlan(q, locality);
    // Slide from the CR along the gap row, then drop into the target
    // row (after any gap shifts).
    return plan.shifts * lat_.move + lat_.longMove + lat_.move;
}

Coord
LineSamBank::commitStore(QubitId q, bool locality)
{
    const StorePlan plan = storePlan(q, locality);
    grid_.makeRoomAt(plan.dest);
    grid_.place(q, plan.dest);
    if (homes_.find(q) == homes_.end())
        homes_.emplace(q, plan.dest);
    gap_ = nearerGapSide(plan.dest.row);
    return plan.dest;
}

} // namespace lsqca
