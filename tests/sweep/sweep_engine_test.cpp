#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/spec.h"
#include "circuit/lowering.h"
#include "common/error.h"
#include "sim/collectors/jsonl_writer.h"
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

/**
 * pointJobs() with a distinct maxInstructions per job: no two share a
 * bank walk, so each job is its own work item. The limits fall with
 * the submission index, so largest-first scheduling keeps submission
 * order.
 */
std::vector<SweepJob>
separatePointJobs(const Program &program, std::size_t n)
{
    std::vector<SweepJob> jobs = pointJobs(program, n);
    for (std::size_t k = 0; k < n; ++k)
        jobs[k].options.maxInstructions = static_cast<std::int64_t>(n - k);
    return jobs;
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
    std::vector<SweepJob> jobs = separatePointJobs(program, 12);
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
        SweepEngine({8, &registry}).run(separatePointJobs(program, 3));
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
    const auto jobs = separatePointJobs(program, 12);
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

/** Every job of builtin spec @p name, programs owned by @p registry. */
std::vector<SweepJob>
paperJobs(const std::string &name, api::BenchmarkRegistry &registry)
{
    std::vector<SweepJob> jobs;
    for (const api::ExpandedJob &expanded :
         api::expandSpec(api::specs::byName(name), registry)) {
        SweepJob job;
        job.name = expanded.name;
        job.program = &registry.program(expanded.bench, expanded.params,
                                        expanded.translate);
        job.options = expanded.options;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(SweepEngine, LaneGroupsEqualPerJobSimulateOnPaperSweeps)
{
    // The paper sweeps run each (program, machine) point at several
    // factory counts: those jobs share one bank walk as lanes, and
    // every result still equals a solo simulate() of its job. fig14's
    // 1,785 jobs form 609 work items: 588 SAM groups plus 21
    // conventional jobs, which have no banks to share and run alone.
    const std::map<std::string, std::int64_t> groups = {
        {"fig14", 609}, {"ablation", 51}};
    api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    for (const char *name : {"fig13", "fig14", "fig15", "ablation", "smoke"}) {
        const std::vector<SweepJob> jobs = paperJobs(name, registry);
        std::vector<SimResult> solo;
        for (const SweepJob &job : jobs)
            solo.push_back(simulate(*job.program, job.options));
        for (const std::int32_t threads : {1, 4}) {
            SCOPED_TRACE(std::string(name) + ", " +
                         std::to_string(threads) + " threads");
            metrics::Registry metrics;
            const SweepReport report =
                SweepEngine({threads, &metrics}).run(jobs);
            ASSERT_EQ(report.results.size(), jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                SCOPED_TRACE(jobs[i].name);
                expectIdentical(report.results[i], solo[i]);
            }
            EXPECT_EQ(metrics.counter("sweep.jobs").value(),
                      static_cast<std::int64_t>(jobs.size()));
            EXPECT_LT(metrics.counter("sweep.groups").value(),
                      static_cast<std::int64_t>(jobs.size()));
            if (groups.contains(name)) {
                EXPECT_EQ(metrics.counter("sweep.groups").value(),
                          groups.at(name));
            }
        }
    }
}

TEST(SweepEngine, JobsApartOutsideMagicSupplyNeverShareAGroup)
{
    // Seven machines at two factory counts each: the SAM factory twins
    // share a walk, no two machines do, and the conventional twins
    // (no banks) run alone.
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    SweepJob base;
    base.name = "base";
    base.program = &program;
    base.options.arch.sam = SamKind::Line;
    std::vector<SweepJob> machines(7, base);
    machines[1].options.arch.hybridFraction = 0.25;
    machines[2].options.maxInstructions = 100;
    machines[3].options.arch.placement = PlacementPolicy::Interleaved;
    machines[4].options.arch.rowParallelOps = false;
    machines[5].options.arch.lat.move = 2;
    machines[6].options.arch.sam = SamKind::Conventional;
    std::vector<SweepJob> jobs;
    for (const std::int32_t factories : {1, 2}) {
        for (SweepJob job : machines) {
            job.options.arch.factories = factories;
            jobs.push_back(job);
        }
    }
    metrics::Registry metrics;
    const SweepReport report = SweepEngine({2, &metrics}).run(jobs);
    EXPECT_EQ(metrics.counter("sweep.groups").value(), 8);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(report.results[i],
                        simulate(*jobs[i].program, jobs[i].options));
}

TEST(SweepEngine, ObservedTracedAndSampledJobsRunAlone)
{
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    SweepJob plain;
    plain.name = "plain";
    plain.program = &program;
    plain.options.arch.sam = SamKind::Point;
    std::ostringstream swept;
    collectors::JsonlWriter sweptWriter(swept);
    std::vector<SweepJob> jobs(6, plain);
    jobs[1].options.observers.push_back(&sweptWriter);
    jobs[2].options.recordTrace = true;
    jobs[3].options.recordBreakdown = true;
    jobs[4].options.estimator.mode = estimate::EstimatorMode::Sampled;
    for (std::size_t i = 1; i < jobs.size(); ++i)
        jobs[i].options.arch.factories = 2;

    metrics::Registry metrics;
    const SweepReport report = SweepEngine({1, &metrics}).run(jobs);
    // Only the two plain jobs share a walk.
    EXPECT_EQ(metrics.counter("sweep.groups").value(), 5);

    // The observer saw the whole event stream a solo run emits.
    std::ostringstream alone;
    collectors::JsonlWriter aloneWriter(alone);
    SimOptions observed = jobs[1].options;
    observed.observers = {&aloneWriter};
    const SimResult solo = simulate(program, observed);
    EXPECT_FALSE(swept.str().empty());
    EXPECT_EQ(swept.str(), alone.str());
    expectIdentical(report.results[1], solo);

    const SimResult traced = simulate(program, jobs[2].options);
    EXPECT_FALSE(report.results[2].trace.empty());
    EXPECT_EQ(report.results[2].trace.size(), traced.trace.size());
    EXPECT_EQ(report.results[2].magicTimes, traced.magicTimes);
    EXPECT_EQ(report.results[3].breakdown,
              simulate(program, jobs[3].options).breakdown);
    EXPECT_FALSE(report.results[3].breakdown.empty());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(report.results[i],
                        simulate(*jobs[i].program, jobs[i].options));
}

TEST(SweepEngine, GroupsLongerThanAnEvenShareRunAsSeparateJobs)
{
    // Two jobs that share a walk: one worker runs them as one group;
    // two workers run them side by side, since the group alone would
    // hold one worker for the whole sweep.
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    std::vector<SweepJob> jobs = pointJobs(program, 2);
    jobs[1].options.arch.factories = 2;
    for (const auto &[threads, groups] :
         {std::pair{1, 1}, std::pair{2, 2}}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        metrics::Registry metrics;
        const SweepReport report =
            SweepEngine({threads, &metrics}).run(jobs);
        EXPECT_EQ(metrics.counter("sweep.groups").value(), groups);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdentical(report.results[i],
                            simulate(*jobs[i].program, jobs[i].options));
    }
}

/** Records the order in which its jobs began. */
class StartOrder final : public SimObserver
{
  public:
    StartOrder(std::vector<std::int64_t> &log, std::int64_t id)
        : log_(log), id_(id)
    {
    }

    void
    onSimBegin(const SimBeginEvent &) override
    {
        log_.push_back(id_);
    }

  private:
    std::vector<std::int64_t> &log_;
    std::int64_t id_;
};

TEST(SweepEngine, LargestWorkItemsStartFirst)
{
    // Work items run by the instructions they simulate, largest first,
    // so a long one never starts last; results keep submission order.
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    const std::vector<std::int64_t> limits = {50, 150, 100};
    std::vector<std::int64_t> started;
    std::vector<std::unique_ptr<StartOrder>> observers;
    std::vector<SweepJob> jobs = pointJobs(program, limits.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].options.maxInstructions = limits[i];
        observers.push_back(
            std::make_unique<StartOrder>(started, limits[i]));
        jobs[i].options.observers.push_back(observers.back().get());
    }
    const SweepReport report = SweepEngine({1}).run(jobs);
    EXPECT_EQ(started, (std::vector<std::int64_t>{150, 100, 50}));
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(report.results[i].instructionsSimulated, limits[i]);
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
