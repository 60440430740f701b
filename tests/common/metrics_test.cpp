/**
 * @file
 * MetricsRegistry coverage: instrument semantics (counter, gauge,
 * histogram), reference stability, kind checking, the name-sorted
 * deterministic snapshot, and thread-safety of concurrent updates —
 * the properties the sweep engine and orchestrator instrumentation
 * (docs/METRICS.md) stand on.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/error.h"
#include "common/metrics.h"

namespace lsqca::metrics {
namespace {

TEST(Metrics, CounterAccumulates)
{
    Registry registry;
    Counter &c = registry.counter("service.spawns");
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    // Same name resolves to the same instrument.
    EXPECT_EQ(&registry.counter("service.spawns"), &c);
}

TEST(Metrics, GaugeIsLastWriteWins)
{
    Registry registry;
    Gauge &g = registry.gauge("service.workers");
    g.set(4.0);
    g.set(2.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, HistogramTracksCountSumMinMaxMean)
{
    Registry registry;
    Histogram &h = registry.histogram("sweep.job_wall_seconds");
    EXPECT_EQ(h.count(), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.observe(2.0);
    h.observe(6.0);
    h.observe(1.0);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.sum(), 9.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Metrics, NameBindsToOneInstrumentKind)
{
    Registry registry;
    registry.counter("service.retries");
    EXPECT_THROW(registry.gauge("service.retries"), InternalError);
    EXPECT_THROW(registry.histogram("service.retries"), InternalError);
}

TEST(Metrics, SnapshotIsNameSortedAndOrderIndependent)
{
    // Two registries fed the same updates in different registration
    // order serialize byte-identically — what keeps metrics.json (and
    // the --clock logical report) deterministic.
    Registry a;
    a.counter("z.count").add(3);
    a.gauge("a.level").set(1.5);
    a.histogram("m.wall").observe(2.0);

    Registry b;
    b.histogram("m.wall").observe(2.0);
    b.counter("z.count").add(3);
    b.gauge("a.level").set(1.5);

    const std::string dumpA = a.toJson().dump(2);
    EXPECT_EQ(dumpA, b.toJson().dump(2));

    const Json snapshot = a.toJson();
    ASSERT_EQ(snapshot.members().size(), 3u);
    EXPECT_EQ(snapshot.members()[0].first, "a.level");
    EXPECT_EQ(snapshot.members()[1].first, "m.wall");
    EXPECT_EQ(snapshot.members()[2].first, "z.count");
    EXPECT_EQ(snapshot.at("z.count").asInt(), 3);
    EXPECT_DOUBLE_EQ(snapshot.at("a.level").asDouble(), 1.5);
    const Json &hist = snapshot.at("m.wall");
    EXPECT_EQ(hist.at("count").asInt(), 1);
    EXPECT_DOUBLE_EQ(hist.at("sum").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("mean").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("min").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("max").asDouble(), 2.0);
}

TEST(Metrics, ConcurrentUpdatesNeverLoseEvents)
{
    Registry registry;
    Counter &hits = registry.counter("hits");
    Histogram &wall = registry.histogram("wall");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                hits.add();
                wall.observe(1.0);
            }
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(hits.value(), kThreads * kPerThread);
    EXPECT_EQ(wall.count(), kThreads * kPerThread);
    EXPECT_DOUBLE_EQ(wall.sum(), kThreads * kPerThread);
    EXPECT_DOUBLE_EQ(wall.min(), 1.0);
    EXPECT_DOUBLE_EQ(wall.max(), 1.0);
}

} // namespace
} // namespace lsqca::metrics
