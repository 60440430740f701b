#include "geom/grid.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace lsqca {
namespace {

/** Fill all cells except @p hole. */
OccupancyGrid
fullGridExcept(std::int32_t rows, std::int32_t cols, Coord hole)
{
    OccupancyGrid grid(rows, cols);
    QubitId next = 0;
    for (std::int32_t r = 0; r < rows; ++r)
        for (std::int32_t c = 0; c < cols; ++c)
            if (!(Coord{r, c} == hole))
                grid.place(next++, {r, c});
    return grid;
}

/** Records every cell event, in order. */
class RecordingListener : public CellListener
{
  public:
    struct Event
    {
        bool occupied;
        QubitId q;
        Coord cell;
    };

    void
    onCellOccupied(QubitId q, const Coord &c) override
    {
        events.push_back({true, q, c});
    }

    void
    onCellVacated(QubitId q, const Coord &c) override
    {
        events.push_back({false, q, c});
    }

    std::vector<Event> events;
};

/** Empty cells by scanning every cell, row-major. */
std::vector<Coord>
scanEmptyCells(const OccupancyGrid &grid)
{
    std::vector<Coord> out;
    for (std::int32_t r = 0; r < grid.rows(); ++r)
        for (std::int32_t c = 0; c < grid.cols(); ++c)
            if (grid.isEmptyCell({r, c}))
                out.push_back({r, c});
    return out;
}

/** Nearest empty cell by scanning (row-major, strict "closer"). */
std::optional<Coord>
scanNearestEmpty(const OccupancyGrid &grid, const Coord &target)
{
    std::optional<Coord> best;
    std::int32_t best_dist = 0;
    for (const Coord &c : scanEmptyCells(grid))
        if (!best || manhattan(c, target) < best_dist) {
            best = c;
            best_dist = manhattan(c, target);
        }
    return best;
}

TEST(MakeRoom, NoopWhenDestinationEmpty)
{
    OccupancyGrid grid(3, 3);
    grid.place(1, {0, 0});
    EXPECT_EQ(grid.makeRoomAt({2, 2}), 0);
    EXPECT_TRUE(grid.isEmptyCell({2, 2}));
}

TEST(MakeRoom, SlidesChainTowardHole)
{
    // Hole at (0,2); make room at (0,0): occupants shift right by one.
    OccupancyGrid grid(1, 3);
    grid.place(10, {0, 0});
    grid.place(11, {0, 1});
    const std::int32_t steps = grid.makeRoomAt({0, 0});
    EXPECT_EQ(steps, 2);
    EXPECT_TRUE(grid.isEmptyCell({0, 0}));
    EXPECT_EQ(grid.at({0, 1}), 10);
    EXPECT_EQ(grid.at({0, 2}), 11);
}

TEST(MakeRoom, WalksRowsThenColumns)
{
    OccupancyGrid grid = fullGridExcept(3, 3, {2, 2});
    const QubitId displaced = grid.at({0, 0});
    const std::int32_t steps = grid.makeRoomAt({0, 0});
    EXPECT_EQ(steps, manhattan({2, 2}, {0, 0}));
    EXPECT_TRUE(grid.isEmptyCell({0, 0}));
    // The displaced occupant moved one step along the path.
    EXPECT_NE(grid.find(displaced)->row == 0 &&
                  grid.find(displaced)->col == 0,
              true);
}

TEST(MakeRoom, PreservesQubitSetAndOccupancy)
{
    OccupancyGrid grid = fullGridExcept(4, 5, {3, 4});
    const std::int32_t before = grid.occupiedCount();
    grid.makeRoomAt({0, 0});
    EXPECT_EQ(grid.occupiedCount(), before);
    std::set<QubitId> seen;
    for (std::int32_t r = 0; r < 4; ++r)
        for (std::int32_t c = 0; c < 5; ++c)
            if (grid.at({r, c}) != kNoQubit) {
                EXPECT_TRUE(seen.insert(grid.at({r, c})).second);
            }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(before));
}

TEST(MakeRoom, ThrowsOnFullGrid)
{
    OccupancyGrid grid(2, 2);
    for (QubitId q = 0; q < 4; ++q)
        grid.place(q, {q / 2, q % 2});
    EXPECT_THROW(grid.makeRoomAt({0, 0}), ConfigError);
}

TEST(MakeRoom, ThrowsOutOfRange)
{
    OccupancyGrid grid(2, 2);
    EXPECT_THROW(grid.makeRoomAt({5, 5}), ConfigError);
}

TEST(MakeRoom, RepeatedInsertionFormsStack)
{
    // Repeatedly making room at the same cell pushes earlier arrivals
    // outward ring by ring (the port LRU-stack behaviour).
    OccupancyGrid grid(5, 5);
    const Coord port{2, 0};
    for (QubitId q = 0; q < 10; ++q) {
        grid.makeRoomAt(port);
        grid.place(q, port);
        EXPECT_EQ(grid.at(port), q);
        grid.remove(q);
        grid.place(q, *grid.nearestEmpty(port)); // park it nearby
    }
    EXPECT_EQ(grid.occupiedCount(), 10);
}

TEST(MakeRoom, FuzzPreservesInvariants)
{
    Rng rng(2024);
    OccupancyGrid grid = fullGridExcept(6, 6, {5, 5});
    for (int step = 0; step < 500; ++step) {
        const Coord dest{
            static_cast<std::int32_t>(rng.below(6)),
            static_cast<std::int32_t>(rng.below(6))};
        const std::int32_t steps = grid.makeRoomAt(dest);
        ASSERT_GE(steps, 0);
        ASSERT_TRUE(grid.isEmptyCell(dest));
        ASSERT_EQ(grid.occupiedCount(), 35);
        // Re-fill the hole with a fresh insertion to keep churn going.
        const QubitId q = grid.at({dest.row, (dest.col + 1) % 6});
        if (q != kNoQubit) {
            grid.remove(q);
            grid.place(q, dest);
        }
    }
}

TEST(MakeRoom, ListenerSeesOnePairPerShiftInWalkOrder)
{
    // Hole at (3,4), destination (0,1): the walk goes up column 4,
    // then left along row 0, and each occupant on the path moves one
    // cell back toward the hole.
    OccupancyGrid grid = fullGridExcept(4, 5, {3, 4});
    const std::vector<Coord> path = {{3, 4}, {2, 4}, {1, 4}, {0, 4},
                                     {0, 3}, {0, 2}, {0, 1}};
    std::vector<QubitId> movers;
    for (std::size_t k = 1; k < path.size(); ++k)
        movers.push_back(grid.at(path[k]));
    RecordingListener listener;
    grid.setCellListener(&listener);
    const std::uint64_t before = grid.version();

    ASSERT_EQ(grid.makeRoomAt({0, 1}), 6);

    ASSERT_EQ(listener.events.size(), 2 * movers.size());
    for (std::size_t k = 0; k < movers.size(); ++k) {
        const auto &vacate = listener.events[2 * k];
        const auto &occupy = listener.events[2 * k + 1];
        EXPECT_FALSE(vacate.occupied) << "shift " << k;
        EXPECT_EQ(vacate.q, movers[k]) << "shift " << k;
        EXPECT_EQ(vacate.cell, path[k + 1]) << "shift " << k;
        EXPECT_TRUE(occupy.occupied) << "shift " << k;
        EXPECT_EQ(occupy.q, movers[k]) << "shift " << k;
        EXPECT_EQ(occupy.cell, path[k]) << "shift " << k;
        EXPECT_EQ(grid.locate(movers[k]), path[k]) << "shift " << k;
    }
    EXPECT_GT(grid.version(), before);
    EXPECT_EQ(grid.emptyCells(), scanEmptyCells(grid));
    EXPECT_EQ(grid.emptyCells(), (std::vector<Coord>{{0, 1}}));
}

TEST(MakeRoom, IndexMatchesCellsAfterEveryWalk)
{
    // The empty-cell index hears only the two ends of each walk; after
    // every walk it must still agree with the cells, and the version
    // must have advanced exactly when something moved.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Rng rng(seed);
        const auto rows = static_cast<std::int32_t>(rng.between(1, 12));
        const auto cols = static_cast<std::int32_t>(rng.between(1, 12));
        OccupancyGrid grid(rows, cols);
        QubitId next = 0;
        for (std::int32_t r = 0; r < rows; ++r)
            for (std::int32_t c = 0; c < cols; ++c)
                if (rng.chance(0.85))
                    grid.place(next++, {r, c});
        if (grid.emptyCount() == 0)
            grid.remove(0);
        RecordingListener listener;
        grid.setCellListener(&listener);
        for (int step = 0; step < 200; ++step) {
            const Coord dest{
                static_cast<std::int32_t>(rng.below(
                    static_cast<std::uint64_t>(rows))),
                static_cast<std::int32_t>(rng.below(
                    static_cast<std::uint64_t>(cols)))};
            const std::uint64_t before = grid.version();
            listener.events.clear();
            const std::int32_t steps = grid.makeRoomAt(dest);
            ASSERT_TRUE(grid.isEmptyCell(dest));
            ASSERT_EQ(listener.events.size(),
                      2 * static_cast<std::size_t>(steps))
                << "seed " << seed << " step " << step;
            if (steps > 0) {
                ASSERT_GT(grid.version(), before)
                    << "seed " << seed << " step " << step;
            } else {
                ASSERT_EQ(grid.version(), before)
                    << "seed " << seed << " step " << step;
            }
            ASSERT_EQ(grid.emptyCells(), scanEmptyCells(grid))
                << "seed " << seed << " step " << step;
            const Coord target{
                static_cast<std::int32_t>(rng.between(-1, rows)),
                static_cast<std::int32_t>(rng.between(-1, cols))};
            ASSERT_EQ(grid.nearestEmpty(target),
                      scanNearestEmpty(grid, target))
                << "seed " << seed << " step " << step;
            // Refill the freed cell from a neighbour to keep churning.
            const QubitId q = grid.at({dest.row, (dest.col + 1) % cols});
            if (q != kNoQubit) {
                grid.remove(q);
                grid.place(q, dest);
            }
        }
    }
}

TEST(MakeRoom, GivenHoleWalksLikeTheSearch)
{
    Rng rng(77);
    for (int trial = 0; trial < 100; ++trial) {
        OccupancyGrid searched = fullGridExcept(7, 9, {3, 4});
        OccupancyGrid given = fullGridExcept(7, 9, {3, 4});
        for (int k = 0; k < 3; ++k) {
            const Coord extra{static_cast<std::int32_t>(rng.below(7)),
                              static_cast<std::int32_t>(rng.below(9))};
            const QubitId q = searched.at(extra);
            if (q != kNoQubit) {
                searched.remove(q);
                given.remove(q);
            }
        }
        const Coord dest{static_cast<std::int32_t>(rng.below(7)),
                         static_cast<std::int32_t>(rng.below(9))};
        const Coord hole = *given.nearestEmpty(dest);
        ASSERT_EQ(given.makeRoomAt(dest, hole), searched.makeRoomAt(dest));
        for (std::int32_t r = 0; r < 7; ++r)
            for (std::int32_t c = 0; c < 9; ++c)
                ASSERT_EQ(given.at({r, c}), searched.at({r, c}))
                    << "trial " << trial;
        ASSERT_EQ(given.emptyCells(), searched.emptyCells());
    }
}

TEST(MakeRoom, GivenHoleMustBeEmptyAndNearest)
{
    OccupancyGrid grid = fullGridExcept(3, 4, {2, 3});
    grid.remove(grid.at({0, 3})); // second hole at (0,3)
    // An occupied "hole", and cells off the grid.
    EXPECT_THROW(grid.makeRoomAt({0, 0}, {1, 1}), ConfigError);
    EXPECT_THROW(grid.makeRoomAt({0, 0}, {5, 0}), ConfigError);
    EXPECT_THROW(grid.makeRoomAt({3, 0}, {2, 3}), ConfigError);
    // From (2,3) to (0,0) the walk would cross the empty (0,3).
    EXPECT_THROW(grid.makeRoomAt({0, 0}, {2, 3}), ConfigError);
}

} // namespace
} // namespace lsqca
