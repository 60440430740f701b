#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** A mixed job list exercising all three machine kinds. */
std::vector<SweepJob>
mixedJobs(const Program &program)
{
    std::vector<SweepJob> jobs;
    auto add = [&](const char *name, SamKind sam, std::int32_t banks,
                   double hybrid) {
        SweepJob job;
        job.name = name;
        job.program = &program;
        job.options.arch.sam = sam;
        job.options.arch.banks = banks;
        job.options.arch.hybridFraction = hybrid;
        jobs.push_back(job);
    };
    add("conv", SamKind::Conventional, 1, 0.0);
    add("point1", SamKind::Point, 1, 0.0);
    add("point2", SamKind::Point, 2, 0.0);
    add("line1", SamKind::Line, 1, 0.0);
    add("line4", SamKind::Line, 4, 0.0);
    add("hybrid", SamKind::Line, 2, 0.25);
    return jobs;
}

/** @p n identical point-SAM jobs over @p program. */
std::vector<SweepJob>
pointJobs(const Program &program, std::size_t n)
{
    SweepJob job;
    job.name = "point";
    job.program = &program;
    job.options.arch.sam = SamKind::Point;
    return std::vector<SweepJob>(n, job);
}

std::string
busyKey(std::size_t worker)
{
    return "sweep.worker." + std::to_string(worker) + ".busy_seconds";
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.execBeats, b.execBeats);
    EXPECT_EQ(a.instructionsSimulated, b.instructionsSimulated);
    EXPECT_EQ(a.countedInstructions, b.countedInstructions);
    EXPECT_EQ(a.cpi, b.cpi); // bitwise: same division, same inputs
    EXPECT_EQ(a.magicConsumed, b.magicConsumed);
    EXPECT_EQ(a.magicStallBeats, b.magicStallBeats);
    EXPECT_EQ(a.memoryBeats, b.memoryBeats);
    EXPECT_EQ(a.opcodeCount, b.opcodeCount);
    EXPECT_EQ(a.opcodeBeats, b.opcodeBeats);
    EXPECT_EQ(a.density(), b.density());
}

TEST(SweepEngine, ParallelSweepsAreBitIdenticalToSerial)
{
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    const auto jobs = mixedJobs(program);

    // Direct serial reference, bypassing the engine entirely.
    std::vector<SimResult> reference;
    for (const auto &job : jobs)
        reference.push_back(simulate(*job.program, job.options));

    for (std::int32_t threads : {1, 2, 8}) {
        SweepEngine engine({threads});
        const SweepReport report = engine.run(jobs);
        ASSERT_EQ(report.results.size(), jobs.size());
        EXPECT_EQ(report.threads, threads);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdentical(report.results[i], reference[i]);
    }
}

TEST(SweepEngine, ResultsStayInSubmissionOrder)
{
    // Jobs of wildly different sizes: the large one finishes last on a
    // multi-worker sweep, but must stay in its submission slot.
    const Program small = translate(lowerToCliffordT(makeGhz(4)));
    const Program large = translate(lowerToCliffordT(makeAdder(12)));
    std::vector<SweepJob> jobs;
    SweepJob job;
    job.options.arch.sam = SamKind::Point;
    job.name = "large";
    job.program = &large;
    jobs.push_back(job);
    job.name = "small";
    job.program = &small;
    jobs.push_back(job);

    SweepEngine engine({4});
    const SweepReport report = engine.run(jobs);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].instructionsSimulated, large.size());
    EXPECT_EQ(report.results[1].instructionsSimulated, small.size());
}

TEST(SweepEngine, EmptyJobListYieldsEmptyReport)
{
    SweepEngine engine({2});
    const SweepReport report = engine.run({});
    EXPECT_TRUE(report.results.empty());
    EXPECT_TRUE(report.jobSeconds.empty());
}

TEST(SweepEngine, JobExceptionPropagates)
{
    // A throwing job surfaces as exactly one ConfigError from run() —
    // never an exception escaping a worker thread (std::terminate) —
    // at any thread count, with or without a registry attached.
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    SweepJob ok;
    ok.name = "ok";
    ok.program = &program;
    ok.options.arch.sam = SamKind::Point;
    SweepJob bad = ok;
    bad.name = "bad";
    bad.options.arch.banks = 3; // invalid for point SAM

    std::vector<SweepJob> oneBad(12, ok);
    oneBad[5] = bad;
    const std::vector<std::pair<const char *, std::vector<SweepJob>>>
        cases = {{"one bad job", oneBad},
                 {"every job bad", std::vector<SweepJob>(8, bad)},
                 {"fewer jobs than threads", {ok, bad}}};
    for (const auto &[label, jobs] : cases) {
        for (const std::int32_t threads : {1, 4, 8}) {
            for (const bool attached : {false, true}) {
                SCOPED_TRACE(std::string(label) + ", " +
                             std::to_string(threads) + " threads" +
                             (attached ? ", metrics" : ""));
                metrics::Registry registry;
                SweepEngine engine(
                    {threads, attached ? &registry : nullptr});
                EXPECT_THROW(engine.run(jobs), ConfigError);
            }
        }
    }
}

TEST(SweepEngine, HealthyWorkersDrainTheRestAfterAFailure)
{
    // A failing worker parks its exception and stops pulling jobs. On
    // one thread that ends the sweep at the bad job; on several, the
    // healthy workers still finish every other job before run()
    // rethrows.
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    std::vector<SweepJob> jobs = pointJobs(program, 12);
    jobs[5].options.arch.banks = 3; // invalid for point SAM
    for (const std::int32_t threads : {1, 4, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        metrics::Registry registry;
        SweepEngine engine({threads, &registry});
        EXPECT_THROW(engine.run(jobs), ConfigError);
        EXPECT_EQ(registry.counter("sweep.jobs").value(),
                  threads == 1 ? 5 : 11);
    }
}

TEST(SweepEngine, FailedSweepLeavesTheEngineReusable)
{
    // Every worker of the failed sweep is joined before run()
    // rethrows, so the same engine runs the next sweep normally.
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    std::vector<SweepJob> bad = pointJobs(program, 6);
    bad[2].options.arch.banks = 3;
    const SweepEngine engine({4});
    EXPECT_THROW(engine.run(bad), ConfigError);

    const auto jobs = mixedJobs(program);
    const SweepReport report = engine.run(jobs);
    ASSERT_EQ(report.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(report.results[i],
                        simulate(*jobs[i].program, jobs[i].options));
}

TEST(SweepEngine, ManyShortJobsMatchSerialWhenOversubscribed)
{
    // Many short jobs on more threads than cores — the unit-scale
    // twin of the fig14 determinism gate — keep every result in its
    // slot, each computed exactly once.
    const Program program = translate(lowerToCliffordT(makeGhz(6)));
    const auto kinds = mixedJobs(program);
    std::vector<SimResult> reference;
    for (const auto &job : kinds)
        reference.push_back(simulate(*job.program, job.options));
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 40 * kinds.size(); ++i)
        jobs.push_back(kinds[i % kinds.size()]);

    metrics::Registry registry;
    const SweepReport report = SweepEngine({16, &registry}).run(jobs);
    ASSERT_EQ(report.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(report.results[i], reference[i % kinds.size()]);
    EXPECT_EQ(registry.counter("sweep.jobs").value(),
              static_cast<std::int64_t>(jobs.size()));
}

TEST(SweepEngine, MetricsCountEveryJobOnce)
{
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    const auto jobs = pointJobs(program, 12);
    for (const std::int32_t threads : {1, 4, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        metrics::Registry registry;
        SweepEngine({threads, &registry}).run(jobs);
        EXPECT_EQ(registry.counter("sweep.jobs").value(), 12);
        EXPECT_EQ(registry.histogram("sweep.job_wall_seconds").count(),
                  12);
        EXPECT_EQ(registry.histogram("sweep.queue_wait_seconds").count(),
                  12);
        EXPECT_TRUE(registry.toJson().contains("sweep.wall_seconds"));
    }
}

TEST(SweepEngine, StartsAtMostOneWorkerPerJob)
{
    // min(threads, jobs) workers: three jobs on eight threads start
    // three, and only started workers report busy time.
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    metrics::Registry registry;
    const SweepReport report =
        SweepEngine({8, &registry}).run(pointJobs(program, 3));
    EXPECT_EQ(report.threads, 8);
    const Json snapshot = registry.toJson();
    for (std::size_t w = 1; w <= 3; ++w)
        EXPECT_TRUE(snapshot.contains(busyKey(w))) << busyKey(w);
    EXPECT_FALSE(snapshot.contains(busyKey(4)));
}

TEST(SweepEngine, WorkerBusyTimeAddsUpToJobTime)
{
    // Each job's wall time is charged to exactly one worker.
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    const auto jobs = pointJobs(program, 12);
    for (const std::int32_t threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        metrics::Registry registry;
        const SweepReport report =
            SweepEngine({threads, &registry}).run(jobs);
        const Json snapshot = registry.toJson();
        double busy = 0.0;
        for (std::size_t w = 1; w <= static_cast<std::size_t>(threads);
             ++w) {
            ASSERT_TRUE(snapshot.contains(busyKey(w))) << busyKey(w);
            busy += registry.gauge(busyKey(w)).value();
        }
        const double charged = std::accumulate(
            report.jobSeconds.begin(), report.jobSeconds.end(), 0.0);
        EXPECT_GT(charged, 0.0);
        EXPECT_NEAR(busy, charged, 1e-9 * charged);
    }
}

TEST(SweepEngine, ZeroThreadsMeansHardwareConcurrency)
{
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    const auto jobs = pointJobs(program, 2);
    const SweepReport report = SweepEngine({0}).run(jobs);
    EXPECT_EQ(report.threads,
              static_cast<std::int32_t>(
                  std::max(1u, std::thread::hardware_concurrency())));
    ASSERT_EQ(report.results.size(), 2u);
    for (const SimResult &result : report.results)
        expectIdentical(result, simulate(program, jobs[0].options));
}

TEST(SweepEngine, RejectsNullProgram)
{
    std::vector<SweepJob> jobs(1);
    jobs[0].name = "null";
    SweepEngine engine({1});
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

TEST(SweepEngine, BenchReportSchema)
{
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    std::vector<SweepJob> jobs;
    SweepJob job;
    job.name = "ghz/point#1";
    job.program = &program;
    job.options.arch.sam = SamKind::Point;
    jobs.push_back(job);
    SweepEngine engine({1});
    const SweepReport report = engine.run(jobs);
    const Json doc = benchReport("unit", jobs, report);
    const std::string text = doc.dump(0);
    EXPECT_NE(text.find("\"bench\":\"unit\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"ghz/point#1\""), std::string::npos);
    EXPECT_NE(text.find("\"cpi\":"), std::string::npos);
    EXPECT_NE(text.find("\"exec_beats\":"), std::string::npos);
    EXPECT_NE(text.find("\"wall_seconds\":"), std::string::npos);
}

} // namespace
} // namespace lsqca
