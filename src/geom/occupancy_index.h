#ifndef LSQCA_GEOM_OCCUPANCY_INDEX_H
#define LSQCA_GEOM_OCCUPANCY_INDEX_H

/**
 * @file
 * Incrementally maintained empty-cell index for an occupancy grid.
 *
 * The bank cost models (src/arch) query nearest-empty cells on every
 * load/store/seek; a naive scan is O(rows * cols) per query and
 * dominates point/line simulate(). This index keeps one free-column
 * bitmask per row plus a bitmask of rows that still have an empty
 * cell, so occupy/vacate are two bit flips (no allocation) and
 * nearest-empty queries are word scans over the few non-full rows
 * nearest the target instead of full-grid sweeps.
 *
 * The query results are bit-identical to the row-major reference scan,
 * including tie-breaking (see nearestEmpty below); the differential
 * harness in tests/arch/bank_fuzz_test.cpp pins this against the
 * scan-based reference oracles.
 *
 * The updates and queries are defined in this header: the simulator
 * calls them per instruction through the bank models, and defining
 * them here lets the one file that instantiates the machine
 * (src/sim/simulator.cpp) compile the whole bank walk as a unit.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "geom/coord.h"

namespace lsqca {

/**
 * Per-row free-column bitmasks + the bitmask of non-full rows.
 *
 * All cells start empty; OccupancyGrid forwards every occupy/vacate
 * transition. Queries never mutate.
 */
class OccupancyIndex
{
  public:
    /** All cells of a rows x cols grid start empty. @pre rows, cols > 0 */
    OccupancyIndex(std::int32_t rows, std::int32_t cols);

    /** Cell @p c transitions empty -> occupied. @pre c is empty */
    void onOccupy(const Coord &c);

    /** Cell @p c transitions occupied -> empty. @pre c is occupied */
    void onVacate(const Coord &c);

    /** Whether the index records @p c as empty (for consistency checks). */
    bool isEmpty(const Coord &c) const;

    /**
     * Empty cell minimizing manhattan distance to @p target; ties break
     * toward the smaller row, then the smaller column — exactly the
     * order a row-major scan with a strict "closer than best" test
     * visits candidates. nullopt when the grid is full. @p target may
     * lie outside the grid.
     *
     * The search starts outward: the non-full rows nearest the target
     * row above and below it come from the non-full-rows bitmask, and
     * the vertically nearer one (the upper one at equal distance)
     * gives a first candidate. Only rows within that candidate's
     * distance can still win, so the search then walks the non-full
     * rows of that window in ascending order; a row above the best so
     * far wins an exact tie, a row below must be strictly closer, and
     * it stops at the first row whose vertical distance alone cannot
     * win. A query near a hole probes about one row.
     */
    std::optional<Coord> nearestEmpty(const Coord &target) const;

    /**
     * Empty cell in row @p row minimizing |col - target_col|; ties break
     * toward the smaller column. nullopt when the row is full.
     * @pre 0 <= row < rows
     */
    std::optional<Coord> nearestEmptyInRow(std::int32_t row,
                                           std::int32_t target_col) const;

    /** All empty cells, row-major order. */
    std::vector<Coord> emptyCells() const;

  private:
    static constexpr std::int32_t kWordBits = 64;

    /** First set bit at or after @p from in @p words[0, @p count), or -1. */
    static std::int32_t nextSetBit(const std::uint64_t *words,
                                   std::int32_t count, std::int32_t from);

    /** Last set bit at or before @p from in @p words, or -1. */
    static std::int32_t prevSetBit(const std::uint64_t *words,
                                   std::int32_t from);

    /**
     * Best free column in @p row for @p target_col under the scan
     * tie-break (smaller column wins equal distance).
     * @pre the row has a free column
     */
    std::int32_t bestColInRow(std::int32_t row,
                              std::int32_t target_col) const;

    const std::uint64_t *
    rowBits(std::int32_t row) const
    {
        return freeBits_.data() +
               static_cast<std::size_t>(row) *
                   static_cast<std::size_t>(wordsPerRow_);
    }

    std::uint64_t &
    wordOf(const Coord &c)
    {
        return freeBits_[static_cast<std::size_t>(c.row) *
                             static_cast<std::size_t>(wordsPerRow_) +
                         static_cast<std::size_t>(c.col / kWordBits)];
    }

    std::int32_t rows_;
    std::int32_t cols_;
    std::int32_t wordsPerRow_;
    /** rows x wordsPerRow words; bit c of a row's words = column c free. */
    std::vector<std::uint64_t> freeBits_;
    /** Bit r set when row r has at least one free column. */
    std::vector<std::uint64_t> rowsWithEmpty_;
    std::vector<std::int32_t> freeCountByRow_;
    /**
     * First free column of each row (cols_ when the row is full). Every
     * hot search targets column 0 (the point port, the line store
     * row), where a row's best column is its first free one: a load
     * instead of a scan across the row's words.
     */
    std::vector<std::int32_t> firstFree_;
};

inline void
OccupancyIndex::onOccupy(const Coord &c)
{
    auto &word = wordOf(c);
    const std::uint64_t bit = std::uint64_t{1} << (c.col % kWordBits);
    LSQCA_ASSERT(word & bit, "occupancy index: cell was not empty");
    word &= ~bit;
    const auto r = static_cast<std::size_t>(c.row);
    if (--freeCountByRow_[r] == 0) {
        rowsWithEmpty_[r / kWordBits] &=
            ~(std::uint64_t{1} << (c.row % kWordBits));
        firstFree_[r] = cols_;
    } else if (firstFree_[r] == c.col) {
        firstFree_[r] = nextSetBit(rowBits(c.row), wordsPerRow_, c.col + 1);
    }
}

inline void
OccupancyIndex::onVacate(const Coord &c)
{
    auto &word = wordOf(c);
    const std::uint64_t bit = std::uint64_t{1} << (c.col % kWordBits);
    LSQCA_ASSERT(!(word & bit), "occupancy index: cell was already empty");
    word |= bit;
    const auto r = static_cast<std::size_t>(c.row);
    if (freeCountByRow_[r]++ == 0)
        rowsWithEmpty_[r / kWordBits] |= std::uint64_t{1}
                                         << (c.row % kWordBits);
    firstFree_[r] = std::min(firstFree_[r], c.col);
}

inline bool
OccupancyIndex::isEmpty(const Coord &c) const
{
    const std::uint64_t word =
        rowBits(c.row)[static_cast<std::size_t>(c.col / kWordBits)];
    return (word >> (c.col % kWordBits)) & 1;
}

inline std::int32_t
OccupancyIndex::nextSetBit(const std::uint64_t *words, std::int32_t count,
                           std::int32_t from)
{
    std::int32_t w = from / kWordBits;
    std::uint64_t word =
        words[w] & (~std::uint64_t{0} << (from % kWordBits));
    while (true) {
        if (word != 0)
            return w * kWordBits +
                   static_cast<std::int32_t>(__builtin_ctzll(word));
        if (++w >= count)
            return -1;
        word = words[w];
    }
}

inline std::int32_t
OccupancyIndex::prevSetBit(const std::uint64_t *words, std::int32_t from)
{
    std::int32_t w = from / kWordBits;
    const std::int32_t shift = from % kWordBits;
    std::uint64_t word =
        words[w] & (shift == 63 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << (shift + 1)) - 1);
    while (true) {
        if (word != 0)
            return w * kWordBits + 63 -
                   static_cast<std::int32_t>(__builtin_clzll(word));
        if (--w < 0)
            return -1;
        word = words[w];
    }
}

inline std::int32_t
OccupancyIndex::bestColInRow(std::int32_t row, std::int32_t target_col) const
{
    const std::uint64_t *bits = rowBits(row);
    // The scan visits columns in ascending order with a strict
    // "closer than best" test, so on an exact distance tie the smaller
    // column (the predecessor) wins.
    if (target_col <= 0)
        return firstFree_[static_cast<std::size_t>(row)];
    if (target_col >= cols_ - 1)
        return prevSetBit(bits, cols_ - 1);
    if (isEmpty({row, target_col}))
        return target_col;
    const std::int32_t pred = prevSetBit(bits, target_col);
    const std::int32_t succ = nextSetBit(bits, wordsPerRow_, target_col);
    if (pred < 0)
        return succ;
    if (succ < 0)
        return pred;
    return target_col - pred <= succ - target_col ? pred : succ;
}

inline std::optional<Coord>
OccupancyIndex::nearestEmpty(const Coord &target) const
{
    const std::uint64_t *rows = rowsWithEmpty_.data();
    // The nearest non-full rows at or above the target row and below it.
    const std::int32_t up =
        target.row < 0 ? -1
                       : prevSetBit(rows, std::min(target.row, rows_ - 1));
    const std::int32_t down =
        target.row + 1 >= rows_
            ? -1
            : nextSetBit(rows, static_cast<std::int32_t>(rowsWithEmpty_.size()),
                         std::max(target.row + 1, 0));
    if (up < 0 && down < 0)
        return std::nullopt;
    // The vertically nearest of the two (the upper one on a tie) bounds
    // the answer: only rows within best_dist of the target can still
    // win.
    const std::int32_t first =
        down < 0 || (up >= 0 && target.row - up <= down - target.row)
            ? up
            : down;
    Coord best{first, bestColInRow(first, target.col)};
    std::int32_t best_dist = manhattan(best, target);
    const std::int32_t lo = std::max(0, target.row - best_dist);
    const std::int32_t hi = std::min(rows_ - 1, target.row + best_dist - 1);
    if (lo > hi)
        return best;
    // Scan the non-full rows of that window in ascending order. A row
    // above the best so far wins an exact tie (the row-major scan
    // would have kept it); a row below must be strictly closer.
    for (std::int32_t w = lo / kWordBits; w <= hi / kWordBits; ++w) {
        std::uint64_t word = rows[w];
        if (w == lo / kWordBits)
            word &= ~std::uint64_t{0} << (lo % kWordBits);
        while (word != 0) {
            const std::int32_t r =
                w * kWordBits + static_cast<std::int32_t>(__builtin_ctzll(word));
            word &= word - 1;
            const std::int32_t row_dist = std::abs(r - target.row);
            if (r > hi || row_dist > best_dist ||
                (row_dist == best_dist && r > best.row)) {
                if (r > target.row)
                    return best; // rows only get farther from here on
                continue;
            }
            if (r == first)
                continue;
            const std::int32_t col = bestColInRow(r, target.col);
            LSQCA_ASSERT(col >= 0 && col < cols_,
                         "occupancy index: non-full row has no free column");
            const std::int32_t d = row_dist + std::abs(col - target.col);
            if (d < best_dist || (d == best_dist && r < best.row)) {
                best_dist = d;
                best = Coord{r, col};
            }
        }
    }
    return best;
}

inline std::optional<Coord>
OccupancyIndex::nearestEmptyInRow(std::int32_t row,
                                  std::int32_t target_col) const
{
    LSQCA_REQUIRE(row >= 0 && row < rows_, "row out of range");
    if (freeCountByRow_[static_cast<std::size_t>(row)] == 0)
        return std::nullopt;
    return Coord{row, bestColInRow(row, target_col)};
}

} // namespace lsqca

#endif // LSQCA_GEOM_OCCUPANCY_INDEX_H
