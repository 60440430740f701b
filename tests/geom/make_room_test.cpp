#include "geom/grid.h"

#include <gtest/gtest.h>

#include <set>

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

} // namespace
} // namespace lsqca
