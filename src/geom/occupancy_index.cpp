#include "geom/occupancy_index.h"

namespace lsqca {

// The per-instruction updates and queries (onOccupy/onVacate, the
// nearest-empty searches) are defined in the header; construction and
// the full empty-cell listing stay here.

OccupancyIndex::OccupancyIndex(std::int32_t rows, std::int32_t cols)
    : rows_(rows), cols_(cols)
{
    LSQCA_REQUIRE(rows > 0 && cols > 0,
                  "OccupancyIndex dimensions must be positive");
    wordsPerRow_ = (cols + kWordBits - 1) / kWordBits;
    freeBits_.assign(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(wordsPerRow_),
                     ~std::uint64_t{0});
    // Clear the padding bits past the last column in each row.
    const std::int32_t tail = cols % kWordBits;
    if (tail != 0) {
        const std::uint64_t last_mask = (std::uint64_t{1} << tail) - 1;
        for (std::int32_t r = 0; r < rows; ++r)
            freeBits_[static_cast<std::size_t>(r + 1) *
                          static_cast<std::size_t>(wordsPerRow_) -
                      1] = last_mask;
    }
    rowsWithEmpty_.assign(
        static_cast<std::size_t>((rows + kWordBits - 1) / kWordBits), 0);
    for (std::int32_t r = 0; r < rows; ++r)
        rowsWithEmpty_[static_cast<std::size_t>(r / kWordBits)] |=
            std::uint64_t{1} << (r % kWordBits);
    freeCountByRow_.assign(static_cast<std::size_t>(rows), cols);
    firstFree_.assign(static_cast<std::size_t>(rows), 0);
}

std::vector<Coord>
OccupancyIndex::emptyCells() const
{
    std::vector<Coord> out;
    for (std::int32_t r = 0; r < rows_; ++r) {
        if (freeCountByRow_[static_cast<std::size_t>(r)] == 0)
            continue;
        const std::uint64_t *bits = rowBits(r);
        for (std::int32_t c = nextSetBit(bits, wordsPerRow_, 0); c >= 0;
             c = c + 1 < cols_ ? nextSetBit(bits, wordsPerRow_, c + 1)
                               : -1)
            out.push_back({r, c});
    }
    return out;
}

} // namespace lsqca
