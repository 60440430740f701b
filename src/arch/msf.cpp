#include "arch/msf.h"

#include <algorithm>

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

namespace {

/** Store history entry k at @p ring[@p pos], @p pos = k mod @p size. */
void
remember(std::vector<std::int64_t> &ring, std::int32_t &pos,
         std::int32_t size, std::int64_t value)
{
    if (static_cast<std::size_t>(pos) == ring.size())
        ring.push_back(value); // first lap
    else
        ring[static_cast<std::size_t>(pos)] = value;
    if (++pos == size)
        pos = 0;
}

} // namespace

std::int64_t
MagicSource::deliveryTime() const
{
    const std::int64_t k = consumed_;
    if (warm_ && k < bufferCap_)
        return 0; // pre-filled buffer at t = 0
    std::int64_t prev_factory;
    if (k >= factories_) {
        prev_factory = delivered_[static_cast<std::size_t>(deliveredPos_)];
    } else {
        // Factory's first state after a cold start (or after the warm
        // prefill was consumed faster than it could be produced).
        prev_factory = 0;
    }
    std::int64_t ready = prev_factory + period_;
    if (k >= bufferCap_)
        ready = std::max(
            ready, consumedAt_[static_cast<std::size_t>(consumedPos_)]);
    return ready;
}

MagicSource::Grant
MagicSource::acquire(std::int64_t req)
{
    LSQCA_REQUIRE(req >= 0, "negative request time");
    if (instant_)
        return {req, req};
    const std::int64_t ready = deliveryTime();
    const std::int64_t start = std::max(req, ready);
    stallBeats_ += std::max<std::int64_t>(0, ready - req);
    remember(delivered_, deliveredPos_, factories_, ready);
    remember(consumedAt_, consumedPos_, bufferCap_, start);
    ++consumed_;
    return {start, start + transfer_};
}

} // namespace lsqca
