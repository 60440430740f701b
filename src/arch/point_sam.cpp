#include "arch/point_sam.h"

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

} // namespace lsqca
