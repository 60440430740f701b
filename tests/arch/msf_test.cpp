#include "arch/msf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"

namespace lsqca {
namespace {

TEST(MagicSource, WarmStartPrefillsBuffer)
{
    MagicSource msf(1, 2, 15, 1, /*warm=*/true, /*instant=*/false);
    // Two states ready at t = 0.
    EXPECT_EQ(msf.acquire(0).start, 0);
    EXPECT_EQ(msf.acquire(0).start, 0);
    // Third state produced from t = 0: ready at 15.
    EXPECT_EQ(msf.acquire(0).start, 15);
    EXPECT_EQ(msf.consumed(), 3);
}

TEST(MagicSource, ColdStartWaitsOnePeriod)
{
    MagicSource msf(1, 2, 15, 1, /*warm=*/false, /*instant=*/false);
    EXPECT_EQ(msf.acquire(0).start, 15);
    EXPECT_EQ(msf.acquire(0).start, 30);
}

TEST(MagicSource, SteadyStateRateIsPeriodOverFactories)
{
    MagicSource msf(1, 2, 15, 1, true, false);
    std::int64_t last = 0;
    for (int i = 0; i < 50; ++i)
        last = msf.acquire(0).start;
    // 2 prefilled + 48 produced: the 50th consumption ~ 48 * 15.
    EXPECT_EQ(last, 48 * 15);
}

TEST(MagicSource, MultipleFactoriesScaleThroughput)
{
    MagicSource msf(4, 8, 15, 1, true, false);
    std::int64_t last = 0;
    for (int i = 0; i < 48; ++i)
        last = msf.acquire(0).start;
    // 8 prefilled + 40 produced by 4 factories: last ready ~ 10 * 15.
    EXPECT_EQ(last, 10 * 15);
}

TEST(MagicSource, SlowConsumerNeverWaits)
{
    MagicSource msf(1, 2, 15, 1, true, false);
    for (int i = 0; i < 20; ++i) {
        const auto grant = msf.acquire(i * 100);
        EXPECT_EQ(grant.start, i * 100);
    }
    EXPECT_EQ(msf.stallBeats(), 0);
}

TEST(MagicSource, BufferCapLimitsBurst)
{
    // After a long idle period, `cap` states are buffered plus one more
    // held inside the stalled factory (it completed long ago and
    // transfers the instant a slot frees); the next one needs a fresh
    // production run.
    MagicSource msf(1, 3, 10, 0, true, false);
    const std::int64_t t = 1000;
    EXPECT_EQ(msf.acquire(t).start, t);
    EXPECT_EQ(msf.acquire(t).start, t);
    EXPECT_EQ(msf.acquire(t).start, t);
    EXPECT_EQ(msf.acquire(t).start, t);      // factory-held state
    EXPECT_EQ(msf.acquire(t).start, t + 10); // freshly produced
}

TEST(MagicSource, StallBeatsAccumulate)
{
    MagicSource msf(1, 1, 10, 0, false, false);
    msf.acquire(0); // ready at 10 -> 10 beats stalled
    EXPECT_EQ(msf.stallBeats(), 10);
    msf.acquire(50); // ready well before 50 -> no stall
    EXPECT_EQ(msf.stallBeats(), 10);
}

TEST(MagicSource, TransferLatencyAppliesAfterGrant)
{
    MagicSource msf(1, 2, 15, 3, true, false);
    const auto grant = msf.acquire(7);
    EXPECT_EQ(grant.start, 7);
    EXPECT_EQ(grant.end, 10);
}

TEST(MagicSource, InstantModeNeverWaits)
{
    MagicSource msf(1, 1, 15, 1, false, /*instant=*/true);
    for (int i = 0; i < 100; ++i) {
        const auto grant = msf.acquire(i);
        EXPECT_EQ(grant.start, i);
        EXPECT_EQ(grant.end, i);
    }
    EXPECT_EQ(msf.stallBeats(), 0);
}

TEST(MagicSource, ConstructionValidation)
{
    EXPECT_THROW(MagicSource(0, 1, 15, 1, true, false), ConfigError);
    EXPECT_THROW(MagicSource(1, 0, 15, 1, true, false), ConfigError);
    EXPECT_THROW(MagicSource(1, 1, 0, 1, true, false), ConfigError);
    EXPECT_THROW(MagicSource(1, 1, 15, -1, true, false), ConfigError);
}

TEST(MagicSource, MonotoneRequestsGiveMonotoneGrants)
{
    MagicSource msf(2, 4, 15, 1, true, false);
    std::int64_t prev = -1;
    for (int i = 0; i < 40; ++i) {
        const auto grant = msf.acquire(i * 3);
        EXPECT_GE(grant.start, prev);
        prev = grant.start;
    }
}

TEST(MagicSource, MatchesRecurrenceOnRandomStreams)
{
    // The source keeps only the last f deliveries and B consumptions;
    // check it against the recurrence over the full history,
    //   d_k = max(d_{k-f} + period, c_{k-B}),  c_k = max(req_k, d_k),
    // with d_{k-f} = 0 for k < f, no c term for k < B, and d_k = 0 for
    // the first B states of a warm start. Request streams are seeded,
    // monotone, and mix bursts (gap 0) with idle stretches.
    const std::int32_t period = 15;
    const std::int32_t transfer = 2;
    for (std::int32_t f = 1; f <= 6; ++f) {
        for (std::int32_t cap = 1; cap <= 9; ++cap) {
            for (const bool warm : {true, false}) {
                for (const bool instant : {false, true}) {
                    SCOPED_TRACE("f=" + std::to_string(f) +
                                 " B=" + std::to_string(cap) +
                                 (warm ? " warm" : " cold") +
                                 (instant ? " instant" : ""));
                    Rng rng(static_cast<std::uint64_t>(
                        ((f * 16 + cap) * 2 + warm) * 2 + instant));
                    MagicSource msf(f, cap, period, transfer, warm,
                                    instant);
                    std::vector<std::int64_t> d;
                    std::vector<std::int64_t> c;
                    std::int64_t req = 0;
                    std::int64_t stall = 0;
                    for (std::size_t k = 0; k < 200; ++k) {
                        const std::uint64_t draw = rng.below(10);
                        req += draw < 4   ? 0
                               : draw < 8 ? static_cast<std::int64_t>(
                                                rng.below(period))
                                          : static_cast<std::int64_t>(
                                                rng.below(8 * period));
                        const MagicSource::Grant grant = msf.acquire(req);
                        if (instant) {
                            ASSERT_EQ(grant.start, req);
                            ASSERT_EQ(grant.end, req);
                            continue;
                        }
                        std::int64_t dk = 0;
                        if (!warm || k >= static_cast<std::size_t>(cap)) {
                            dk = (k >= static_cast<std::size_t>(f)
                                      ? d[k - static_cast<std::size_t>(f)]
                                      : 0) +
                                 period;
                            if (k >= static_cast<std::size_t>(cap))
                                dk = std::max(
                                    dk,
                                    c[k - static_cast<std::size_t>(cap)]);
                        }
                        d.push_back(dk);
                        c.push_back(std::max(req, dk));
                        stall += std::max<std::int64_t>(0, dk - req);
                        ASSERT_EQ(grant.start, c.back()) << "state " << k;
                        ASSERT_EQ(grant.end, c.back() + transfer);
                    }
                    EXPECT_EQ(msf.consumed(),
                              static_cast<std::int64_t>(c.size()));
                    EXPECT_EQ(msf.stallBeats(), stall);
                }
            }
        }
    }
}

} // namespace
} // namespace lsqca
