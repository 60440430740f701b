#include "arch/line_sam.h"

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
            homeSlot(vars[next]) = Coord{r, c};
            ++next;
        }
    }
    LSQCA_ASSERT(next == vars.size(), "initial placement did not fit");
}

} // namespace lsqca
