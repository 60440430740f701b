#include "arch/floorplan.h"

#include <gtest/gtest.h>

#include "arch/line_sam.h"
#include "arch/point_sam.h"
#include "common/error.h"

namespace lsqca {
namespace {

TEST(Floorplan, BankCapacityDealsRoundRobin)
{
    EXPECT_EQ(bankCapacity(10, 1, 0), 10);
    EXPECT_EQ(bankCapacity(10, 4, 0), 3);
    EXPECT_EQ(bankCapacity(10, 4, 1), 3);
    EXPECT_EQ(bankCapacity(10, 4, 2), 2);
    EXPECT_EQ(bankCapacity(10, 4, 3), 2);
    EXPECT_THROW(bankCapacity(10, 2, 2), ConfigError);
}

TEST(Floorplan, MultiplierLineSamMatchesPaper)
{
    // Paper Sec. VI-B: line SAM achieves ~400/462 = 87% for the
    // 400-qubit multiplier.
    ArchConfig cfg;
    cfg.sam = SamKind::Line;
    const FloorplanStats stats = floorplanStats(cfg, 400, 0);
    EXPECT_EQ(stats.samCells, 420);   // 20x20 data + 20-cell scan row
    EXPECT_EQ(stats.crCells, 42);     // 2 columns x 21
    EXPECT_EQ(stats.totalCells, 462);
    EXPECT_NEAR(stats.density(), 400.0 / 462.0, 1e-12);
    EXPECT_NEAR(stats.density(), 0.87, 0.01);
}

TEST(Floorplan, MultiplierPointSamNearFullDensity)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    const FloorplanStats stats = floorplanStats(cfg, 400, 0);
    EXPECT_EQ(stats.samCells, 401);
    EXPECT_EQ(stats.crCells, 6);
    EXPECT_NEAR(stats.density(), 400.0 / 407.0, 1e-12);
    EXPECT_GT(stats.density(), 0.98);
}

TEST(Floorplan, ConventionalIsHalfDensity)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Conventional;
    const FloorplanStats stats = floorplanStats(cfg, 123, 123);
    EXPECT_EQ(stats.totalCells, 246);
    EXPECT_DOUBLE_EQ(stats.density(), 0.5);
}

TEST(Floorplan, FullHybridEqualsConventional)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Line;
    cfg.hybridFraction = 1.0;
    const FloorplanStats stats = floorplanStats(cfg, 200, 200);
    EXPECT_EQ(stats.samCells, 0);
    EXPECT_EQ(stats.crCells, 0);
    EXPECT_EQ(stats.totalCells, 400);
    EXPECT_DOUBLE_EQ(stats.density(), 0.5);
}

TEST(Floorplan, HybridDensityInterpolates)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    const double d0 = floorplanStats(cfg, 400, 0).density();
    const double d_half = floorplanStats(cfg, 400, 200).density();
    const double d1 = floorplanStats(cfg, 400, 400).density();
    EXPECT_GT(d0, d_half);
    EXPECT_GT(d_half, d1);
    EXPECT_DOUBLE_EQ(d1, 0.5);
}

TEST(Floorplan, MoreBanksNeverRaiseLineDensity)
{
    ArchConfig one;
    one.sam = SamKind::Line;
    one.banks = 1;
    ArchConfig four = one;
    four.banks = 4;
    const double d1 = floorplanStats(one, 400, 0).density();
    const double d4 = floorplanStats(four, 400, 0).density();
    EXPECT_LE(d4, d1 + 1e-12);
}

TEST(Floorplan, SecondPointBankCostsLittle)
{
    ArchConfig one;
    one.sam = SamKind::Point;
    ArchConfig two = one;
    two.banks = 2;
    const auto s1 = floorplanStats(one, 400, 0);
    const auto s2 = floorplanStats(two, 400, 0);
    EXPECT_EQ(s2.samCells, 402); // one extra scan cell
    EXPECT_LT(s2.density(), s1.density());
    EXPECT_GT(s2.density(), 0.97);
}

TEST(Floorplan, PointBankShapeIsSquarest)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    const BankShape s = bankShape(cfg, 399, 0); // 400 cells
    EXPECT_EQ(s.rows, 20);
    EXPECT_EQ(s.cols, 20);
    EXPECT_GE(static_cast<std::int64_t>(s.rows) * s.cols,
              s.capacity + 1);
}

TEST(Floorplan, LineBankShapeAddsScanRow)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Line;
    const BankShape s = bankShape(cfg, 400, 0);
    EXPECT_EQ(s.rows, 21); // 20 data rows + scan row
    EXPECT_EQ(s.cols, 20);
    // L x (L+1) form when L*L is too small.
    const BankShape t = bankShape(cfg, 20, 0);
    EXPECT_EQ(t.rows, 5); // 4x5 data + scan
    EXPECT_EQ(t.cols, 5);
}

// Footnote 1: rows = ceil(sqrt(capacity + 1)) and the fewest columns
// that then fit the capacity + 1 cells.
TEST(Floorplan, PointBankGridIsTheSquarestThatFits)
{
    for (std::int32_t capacity = 1; capacity <= 2000; ++capacity) {
        const std::int32_t cells = capacity + 1;
        std::int32_t rows = 1;
        while (rows * rows < cells)
            ++rows;
        const BankShape s = pointBankGrid(capacity);
        ASSERT_EQ(s.rows, rows) << capacity;
        ASSERT_GE(s.cells(), cells) << capacity;
        ASSERT_LT(s.rows * (s.cols - 1), cells) << capacity;
        ASSERT_EQ(s.capacity, capacity) << capacity;
    }
    EXPECT_THROW(pointBankGrid(0), ConfigError);
}

// Sec. VI-A: with L = floor(sqrt(capacity)), the first of L x L,
// L x (L + 1) and (L + 1) x (L + 1) that holds the capacity.
TEST(Floorplan, LineDataGridIsTheTightestForm)
{
    for (std::int32_t capacity = 1; capacity <= 2000; ++capacity) {
        std::int32_t side = 1;
        while ((side + 1) * (side + 1) <= capacity)
            ++side;
        std::int32_t rows = side, cols = side;
        if (rows * cols < capacity)
            ++cols;
        if (rows * cols < capacity)
            ++rows;
        const BankShape s = lineDataGrid(capacity);
        ASSERT_EQ(s.rows, rows) << capacity;
        ASSERT_EQ(s.cols, cols) << capacity;
        ASSERT_EQ(s.capacity, capacity) << capacity;
    }
    EXPECT_THROW(lineDataGrid(0), ConfigError);
}

// The simulator's banks and the density accounting share one geometry
// rule, so every bank the simulator runs has the floorplan's shape.
TEST(Floorplan, SimulatedBanksHaveTheFloorplanShape)
{
    ArchConfig point;
    point.sam = SamKind::Point;
    ArchConfig line;
    line.sam = SamKind::Line;
    for (std::int32_t capacity = 1; capacity <= 2000; ++capacity) {
        const PointSamBank pbank(capacity, Latencies{});
        const BankShape pshape = bankShape(point, capacity, 0);
        ASSERT_EQ(pbank.rows(), pshape.rows) << capacity;
        ASSERT_EQ(pbank.cols(), pshape.cols) << capacity;

        const LineSamBank lbank(capacity, Latencies{});
        const BankShape lshape = bankShape(line, capacity, 0);
        ASSERT_EQ(lbank.dataRows(), lshape.rows - 1) << capacity;
        ASSERT_EQ(lbank.cols(), lshape.cols) << capacity;
    }
}

// A point bank simulates its whole grid, but density counts only its
// capacity + 1 cells, leaving the spare cells out. Where capacity + 1
// is a perfect square there is none: Fig. 14's execution-time spikes.
TEST(Floorplan, PointBankSpareCells)
{
    struct Case
    {
        std::int32_t capacity, rows, cols, spare;
    };
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    for (const Case &c : {Case{360, 19, 19, 0}, Case{195, 14, 14, 0},
                          Case{400, 21, 20, 19}}) {
        const PointSamBank bank(c.capacity, Latencies{});
        EXPECT_EQ(bank.rows(), c.rows) << c.capacity;
        EXPECT_EQ(bank.cols(), c.cols) << c.capacity;
        EXPECT_EQ(bank.rows() * bank.cols() - c.capacity - 1, c.spare)
            << c.capacity;
        EXPECT_EQ(floorplanStats(cfg, c.capacity, 0).samCells,
                  c.capacity + 1)
            << c.capacity;
    }
}

TEST(Floorplan, ConventionalCountRoundsHalfUp)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    cfg.hybridFraction = 0.05;
    EXPECT_EQ(conventionalCount(cfg, 127), 6); // 6.35; ceil gives 7
    cfg.hybridFraction = 0.5;
    EXPECT_EQ(conventionalCount(cfg, 5), 3); // 2.5 rounds up
    cfg.hybridFraction = 1.0;
    EXPECT_EQ(conventionalCount(cfg, 127), 127);
    cfg.hybridFraction = 0.0;
    EXPECT_EQ(conventionalCount(cfg, 127), 0);
    cfg.sam = SamKind::Conventional;
    EXPECT_EQ(conventionalCount(cfg, 127), 127);
}

TEST(Floorplan, DensityApproachesOneAsymptotically)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Point;
    const double small = floorplanStats(cfg, 100, 0).density();
    const double large = floorplanStats(cfg, 10000, 0).density();
    EXPECT_GT(large, small);
    EXPECT_GT(large, 0.999);
}

TEST(Floorplan, CatalogueMatchesFig7)
{
    const auto entries = floorplanCatalogue();
    ASSERT_GE(entries.size(), 4u);
    EXPECT_DOUBLE_EQ(entries[0].density, 0.25);
    EXPECT_DOUBLE_EQ(entries[1].density, 4.0 / 9.0);
    EXPECT_DOUBLE_EQ(entries[2].density, 0.5);
    EXPECT_DOUBLE_EQ(entries[3].density, 2.0 / 3.0);
    // Unit-time access for the first three floorplans.
    EXPECT_EQ(entries[0].accessBeats, 1);
    EXPECT_EQ(entries[1].accessBeats, 1);
    EXPECT_EQ(entries[2].accessBeats, 1);
    EXPECT_GT(entries[3].accessBeats, 1);
}

TEST(Floorplan, ConventionalQubitValidation)
{
    ArchConfig cfg;
    EXPECT_THROW(floorplanStats(cfg, 10, 11), ConfigError);
    EXPECT_THROW(floorplanStats(cfg, 10, -1), ConfigError);
}

} // namespace
} // namespace lsqca
