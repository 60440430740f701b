#include "arch/point_sam.h"

#include <cmath>

#include "arch/floorplan.h"
#include "common/error.h"

namespace lsqca {

PointSamBank::PointSamBank(std::int32_t capacity, const Latencies &lat)
    : capacity_(capacity), lat_(lat),
      grid_(pointBankGrid(capacity).rows, pointBankGrid(capacity).cols)
{
    port_ = {grid_.rows() / 2, 0};
    scan_ = port_;
}

void
PointSamBank::placeInitial(const std::vector<QubitId> &vars)
{
    LSQCA_REQUIRE(static_cast<std::int32_t>(vars.size()) <= capacity_,
                  "point-SAM bank over capacity");
    std::size_t next = 0;
    for (std::int32_t r = 0; r < grid_.rows() && next < vars.size(); ++r) {
        for (std::int32_t c = 0; c < grid_.cols() && next < vars.size();
             ++c) {
            const Coord cell{r, c};
            if (cell == port_)
                continue; // the scan cell's initial position stays empty
            grid_.place(vars[next], cell);
            homeSlot(vars[next]) = cell;
            ++next;
        }
    }
    LSQCA_ASSERT(next == vars.size(), "initial placement did not fit");
}

Coord &
PointSamBank::homeSlot(QubitId q)
{
    LSQCA_ASSERT(q >= 0, "invalid qubit id");
    const auto idx = static_cast<std::size_t>(q);
    if (idx >= homes_.size())
        homes_.resize(idx + 1, Coord{-1, -1});
    return homes_[idx];
}

std::int64_t
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

std::int64_t
PointSamBank::seekCost(QubitId q) const
{
    const Coord pos = grid_.locate(q);
    const std::int64_t dist = manhattan(scan_, pos);
    return std::max<std::int64_t>(0, dist - 1) * lat_.move;
}

void
PointSamBank::commitSeek(QubitId q)
{
    scan_ = grid_.locate(q);
}

std::int64_t
PointSamBank::loadCost(QubitId q) const
{
    const Coord pos = grid_.locate(q);
    return seekCost(q) + pickCost(pos, port_) + lat_.move;
}

void
PointSamBank::commitLoad(QubitId q)
{
    grid_.remove(q);
    scan_ = port_;
}

Coord
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

Coord
PointSamBank::storeDestination(QubitId q, bool locality) const
{
    if (!locality)
        return homeOrNearest(q);
    // Locality-aware: the newest qubit lands right at the port; older
    // occupants slide one step outward (makeRoomAt at commit).
    return port_;
}

std::int64_t
PointSamBank::storeCost(QubitId q, bool locality) const
{
    const Coord dest = storeDestination(q, locality);
    return lat_.move + pickCost(port_, dest);
}

Coord
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

std::int64_t
PointSamBank::fetchToPortCost(QubitId q) const
{
    const Coord pos = grid_.locate(q);
    return seekCost(q) + pickCost(pos, port_);
}

void
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
