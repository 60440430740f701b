#include "arch/msf.h"

namespace lsqca {

MagicSource::MagicSource(std::int32_t factories, std::int32_t buffer_cap,
                         std::int32_t period, std::int32_t transfer,
                         bool warm_start, bool instant)
    : factories_(factories), bufferCap_(buffer_cap), period_(period),
      transfer_(transfer), warm_(warm_start), instant_(instant)
{
    LSQCA_REQUIRE(factories >= 1, "MagicSource needs >= 1 factory");
    LSQCA_REQUIRE(buffer_cap >= 1, "MagicSource needs >= 1 buffer slot");
    LSQCA_REQUIRE(period >= 1, "MagicSource period must be positive");
    LSQCA_REQUIRE(transfer >= 0, "MagicSource transfer must be >= 0");
}

void
MagicSource::grow(std::vector<std::int64_t> &ring, std::int64_t value)
{
    ring.push_back(value);
}

} // namespace lsqca
