#include "geom/grid.h"

namespace lsqca {

// The per-instruction accessors, mutations and queries are defined in
// grid.h; construction and the cold paths stay here.

OccupancyGrid::OccupancyGrid(std::int32_t rows, std::int32_t cols)
    : rows_(rows),
      cols_(cols),
      cells_(rows > 0 && cols > 0
                 ? static_cast<std::size_t>(rows) *
                       static_cast<std::size_t>(cols)
                 : 0,
             kNoQubit),
      empties_(rows, cols) // validates rows, cols > 0
{
}

void
OccupancyGrid::growPositions(std::size_t size)
{
    positions_.resize(size, Coord{-1, -1});
}

std::vector<Coord>
OccupancyGrid::emptyCells() const
{
    return empties_.emptyCells();
}

} // namespace lsqca
