#include "geom/grid.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace lsqca {
namespace {

TEST(OccupancyGrid, ConstructionValidation)
{
    EXPECT_THROW(OccupancyGrid(0, 3), ConfigError);
    EXPECT_THROW(OccupancyGrid(3, 0), ConfigError);
    OccupancyGrid g(4, 5);
    EXPECT_EQ(g.rows(), 4);
    EXPECT_EQ(g.cols(), 5);
    EXPECT_EQ(g.cellCount(), 20);
    EXPECT_EQ(g.emptyCount(), 20);
}

TEST(OccupancyGrid, PlaceFindRemove)
{
    OccupancyGrid g(3, 3);
    g.place(7, {1, 2});
    EXPECT_EQ(g.occupiedCount(), 1);
    EXPECT_EQ(g.at({1, 2}), 7);
    EXPECT_TRUE(g.find(7).has_value());
    EXPECT_EQ(g.locate(7), (Coord{1, 2}));
    EXPECT_EQ(g.remove(7), (Coord{1, 2}));
    EXPECT_EQ(g.occupiedCount(), 0);
    EXPECT_FALSE(g.find(7).has_value());
}

TEST(OccupancyGrid, RejectsDoublePlacement)
{
    OccupancyGrid g(2, 2);
    g.place(1, {0, 0});
    EXPECT_THROW(g.place(1, {0, 1}), ConfigError);   // same qubit twice
    EXPECT_THROW(g.place(2, {0, 0}), ConfigError);   // occupied cell
    EXPECT_THROW(g.place(kNoQubit, {1, 1}), ConfigError);
}

TEST(OccupancyGrid, RemoveUnplacedThrows)
{
    OccupancyGrid g(2, 2);
    EXPECT_THROW(g.remove(5), ConfigError);
    EXPECT_THROW(g.locate(5), ConfigError);
}

TEST(OccupancyGrid, Relocate)
{
    OccupancyGrid g(3, 3);
    g.place(4, {0, 0});
    g.relocate(4, {2, 2});
    EXPECT_EQ(g.locate(4), (Coord{2, 2}));
    EXPECT_TRUE(g.isEmptyCell({0, 0}));
    g.place(5, {0, 0});
    EXPECT_THROW(g.relocate(4, {0, 0}), ConfigError);
}

TEST(OccupancyGrid, NearestEmptyPrefersClosest)
{
    OccupancyGrid g(3, 3);
    for (std::int32_t r = 0; r < 3; ++r)
        for (std::int32_t c = 0; c < 3; ++c)
            if (!(r == 0 && c == 2) && !(r == 2 && c == 0))
                g.place(r * 3 + c + 1, {r, c});
    // Empties: (0,2) and (2,0).
    EXPECT_EQ(g.nearestEmpty({0, 0}), (Coord{0, 2}));
    EXPECT_EQ(g.nearestEmpty({2, 2}), (Coord{0, 2})); // tie -> lower row
    EXPECT_EQ(g.nearestEmpty({2, 1}), (Coord{2, 0}));
}

TEST(OccupancyGrid, NearestEmptyOnFullGrid)
{
    OccupancyGrid g(2, 2);
    for (std::int32_t i = 0; i < 4; ++i)
        g.place(i + 1, {i / 2, i % 2});
    EXPECT_FALSE(g.nearestEmpty({0, 0}).has_value());
}

TEST(OccupancyGrid, NearestEmptyInRow)
{
    OccupancyGrid g(2, 4);
    g.place(1, {0, 0});
    g.place(2, {0, 1});
    // Row 0 empties: cols 2, 3.
    EXPECT_EQ(g.nearestEmptyInRow(0, 0), (Coord{0, 2}));
    EXPECT_EQ(g.nearestEmptyInRow(0, 3), (Coord{0, 3}));
    EXPECT_EQ(g.nearestEmptyInRow(1, 2), (Coord{1, 2}));
    g.place(3, {0, 2});
    g.place(4, {0, 3});
    EXPECT_FALSE(g.nearestEmptyInRow(0, 0).has_value());
    EXPECT_THROW(g.nearestEmptyInRow(5, 0), ConfigError);
}

// ---- nearest-empty tie-breaking --------------------------------------------
//
// The documented contract (grid.h): among equal-Manhattan-distance
// empty cells the smallest row wins, then the smallest column — the
// first candidate a row-major scan with a strict "closer than best"
// test keeps. The incremental OccupancyIndex must reproduce this scan
// order exactly; these regressions pin the tie cases so an index
// rewrite cannot silently change bank store destinations.

TEST(OccupancyGrid, NearestEmptyTieBreaksTowardSmallerRow)
{
    OccupancyGrid g(3, 3);
    QubitId q = 1;
    for (std::int32_t r = 0; r < 3; ++r)
        for (std::int32_t c = 0; c < 3; ++c)
            if (!(r == 0 && c == 1) && !(r == 1 && c == 0))
                g.place(q++, {r, c});
    // Empties (0,1) and (1,0) are both 1 step from (1,1).
    EXPECT_EQ(g.nearestEmpty({1, 1}), (Coord{0, 1}));
}

TEST(OccupancyGrid, NearestEmptyTieBreaksTowardSmallerColWithinRow)
{
    OccupancyGrid g(3, 3);
    QubitId q = 1;
    for (std::int32_t r = 0; r < 3; ++r)
        for (std::int32_t c = 0; c < 3; ++c)
            if (!(r == 1 && c == 0) && !(r == 1 && c == 2))
                g.place(q++, {r, c});
    // Empties (1,0) and (1,2) are both 1 step from (1,1).
    EXPECT_EQ(g.nearestEmpty({1, 1}), (Coord{1, 0}));
}

TEST(OccupancyGrid, NearestEmptyFourWayTieRing)
{
    OccupancyGrid g(5, 5);
    QubitId q = 1;
    const Coord ring[4] = {{1, 2}, {2, 1}, {2, 3}, {3, 2}};
    for (std::int32_t r = 0; r < 5; ++r)
        for (std::int32_t c = 0; c < 5; ++c) {
            bool empty = false;
            for (const Coord &e : ring)
                if (e == Coord{r, c})
                    empty = true;
            if (!empty)
                g.place(q++, {r, c});
        }
    // All four ring cells are 1 step from the center: smallest row wins.
    EXPECT_EQ(g.nearestEmpty({2, 2}), (Coord{1, 2}));
    // Remove the winner from contention: (2,1) and (2,3) tie within
    // row 2 and the smaller column wins over (3,2).
    g.place(q++, {1, 2});
    EXPECT_EQ(g.nearestEmpty({2, 2}), (Coord{2, 1}));
}

TEST(OccupancyGrid, NearestEmptyInRowTieBreaksTowardSmallerCol)
{
    OccupancyGrid g(1, 5);
    g.place(1, {0, 1});
    g.place(2, {0, 2});
    g.place(3, {0, 3});
    // Empties at cols 0 and 4, target col 2: both 2 away.
    EXPECT_EQ(g.nearestEmptyInRow(0, 2), (Coord{0, 0}));
}

TEST(OccupancyGrid, TieOrderSurvivesChurn)
{
    // Occupy/vacate churn must leave the index answering ties exactly
    // like a fresh scan: compare against a brute-force scan oracle
    // after every mutation.
    auto brute = [](const OccupancyGrid &g, const Coord &target) {
        std::optional<Coord> best;
        std::int32_t best_dist = std::numeric_limits<std::int32_t>::max();
        for (std::int32_t r = 0; r < g.rows(); ++r)
            for (std::int32_t c = 0; c < g.cols(); ++c) {
                if (!g.isEmptyCell({r, c}))
                    continue;
                const std::int32_t d = manhattan({r, c}, target);
                if (d < best_dist) {
                    best_dist = d;
                    best = Coord{r, c};
                }
            }
        return best;
    };
    OccupancyGrid g(4, 4);
    QubitId q = 1;
    for (std::int32_t r = 0; r < 4; ++r)
        for (std::int32_t c = 0; c < 4; ++c)
            g.place(q++, {r, c});
    // Vacate a diagonal, re-occupy part of it, then check every target.
    g.remove(1);           // (0,0)
    g.remove(6);           // (1,1)
    g.remove(11);          // (2,2)
    g.remove(16);          // (3,3)
    g.place(17, {1, 1});
    for (std::int32_t r = 0; r < 4; ++r)
        for (std::int32_t c = 0; c < 4; ++c)
            EXPECT_EQ(g.nearestEmpty({r, c}), brute(g, {r, c}))
                << "target (" << r << "," << c << ")";
}

TEST(OccupancyGrid, LineStoreHoleIsNearestToItsDestination)
{
    // A locality line store finds h = nearestEmpty({r, 0}), stores at
    // {r, h.col}, and walks from h without searching again. That is
    // sound only if h is also the empty cell nearest that destination,
    // ties included. Random grids from near-full to half-full, tall
    // enough for the row bitmasks to span several words.
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        Rng rng(seed);
        const auto rows = static_cast<std::int32_t>(rng.between(1, 90));
        const auto cols = static_cast<std::int32_t>(rng.between(1, 90));
        const double fill = seed % 3 == 0 ? 0.5 : 0.97;
        OccupancyGrid g(rows, cols);
        QubitId q = 0;
        for (std::int32_t r = 0; r < rows; ++r)
            for (std::int32_t c = 0; c < cols; ++c)
                if (rng.chance(fill))
                    g.place(q++, {r, c});
        if (g.emptyCount() == 0)
            g.remove(static_cast<QubitId>(rng.below(
                static_cast<std::uint64_t>(q))));
        for (std::int32_t r = 0; r < rows; ++r) {
            const auto hole = g.nearestEmpty({r, 0});
            ASSERT_TRUE(hole.has_value());
            EXPECT_EQ(g.nearestEmpty({r, hole->col}), hole)
                << "seed " << seed << " row " << r;
        }
    }
}

TEST(OccupancyGrid, VersionBumpsOnEveryMutation)
{
    OccupancyGrid g(2, 2);
    const std::uint64_t v0 = g.version();
    g.place(1, {0, 0});
    const std::uint64_t v1 = g.version();
    EXPECT_GT(v1, v0);
    g.relocate(1, {1, 1});
    const std::uint64_t v2 = g.version();
    EXPECT_GT(v2, v1);
    g.remove(1);
    EXPECT_GT(g.version(), v2);
    // Queries do not mutate.
    const std::uint64_t v3 = g.version();
    (void)g.nearestEmpty({0, 0});
    (void)g.nearestEmptyInRow(0, 0);
    (void)g.emptyCells();
    EXPECT_EQ(g.version(), v3);
}

TEST(OccupancyGrid, EmptyCellsRowMajor)
{
    OccupancyGrid g(2, 2);
    g.place(1, {0, 1});
    g.place(2, {1, 0});
    const auto empties = g.emptyCells();
    ASSERT_EQ(empties.size(), 2u);
    EXPECT_EQ(empties[0], (Coord{0, 0}));
    EXPECT_EQ(empties[1], (Coord{1, 1}));
}

TEST(OccupancyGrid, ContainsBounds)
{
    OccupancyGrid g(2, 3);
    EXPECT_TRUE(g.contains({0, 0}));
    EXPECT_TRUE(g.contains({1, 2}));
    EXPECT_FALSE(g.contains({-1, 0}));
    EXPECT_FALSE(g.contains({2, 0}));
    EXPECT_FALSE(g.contains({0, 3}));
}

} // namespace
} // namespace lsqca
