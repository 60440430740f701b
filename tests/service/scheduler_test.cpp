/**
 * @file
 * Step-level coverage of the campaign engine (service/scheduler.h)
 * without the Orchestrator's drive loop: admission and reopen of a
 * queue, the dispatch/poll/kill/finish steps one at a time, and the
 * retry funnel's classification of every way a worker can end. Real
 * campaigns use the `lsqca` binary (LSQCA_CLI_BIN) as their workers;
 * the failure and straggler cases put a small /bin/sh worker in front
 * of it so each outcome is deterministic.
 */

#include <gtest/gtest.h>

#include <signal.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/json.h"
#include "common/jsonl.h"
#include "service/journal.h"
#include "service/orchestrator.h"
#include "service/queue.h"
#include "service/scheduler.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

/** Direct in-process --no-timing run; returns the BENCH file bytes. */
std::string
goldenRun(const std::string &specPath, const std::string &outDir)
{
    const api::SweepSpec spec = api::SweepSpec::load(specPath);
    api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    api::RunSpecOptions options;
    options.threads = 2;
    options.outDir = outDir;
    options.noTiming = true;
    const api::SpecRun run = api::runSpec(spec, registry, options);
    return fsutil::readFile(run.jsonPath);
}

/** A no-timing smoke campaign admitted into @p stateDir. */
CampaignAdmission
admitSmoke(const std::string &stateDir, std::int32_t shards,
           std::int32_t maxAttempts = 0)
{
    return admitCampaign(test::kSmokeSpec, stateDir, shards, 2, true,
                         maxAttempts);
}

SchedulerOptions
baseOptions(const std::string &stateDir)
{
    SchedulerOptions options;
    options.stateDir = stateDir;
    options.cacheDir = stateDir + "/cache";
    options.workerExe = test::kCliBin;
    options.workers = 2;
    return options;
}

/**
 * Write an executable /bin/sh worker. A body that ends in
 * `exec CLI "$@"` hands the invocation on to the real binary.
 */
std::string
writeWorker(const std::string &path, const std::string &body)
{
    fsutil::writeFileAtomic(path, "#!/bin/sh\n" + body + "\n");
    namespace fs = std::filesystem;
    fs::permissions(path,
                    fs::perms::owner_all | fs::perms::group_read |
                        fs::perms::group_exec | fs::perms::others_read |
                        fs::perms::others_exec);
    return path;
}

std::string
execCli()
{
    return std::string("exec '") + test::kCliBin + "' \"$@\"";
}

std::vector<Json>
events(const std::string &stateDir)
{
    return jsonl::readLines(Journal::pathFor(stateDir)).lines;
}

std::vector<Json>
eventsNamed(const std::string &stateDir, const std::string &kind)
{
    std::vector<Json> out;
    for (const Json &event : events(stateDir))
        if (event.at("event").asString() == kind)
            out.push_back(event);
    return out;
}

/** Poll until @p done holds; false after a generous deadline. */
template <typename Pred>
bool
pollUntil(Scheduler &scheduler, Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        scheduler.pollWorkers();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/** The Orchestrator's drain, minus escalation: dispatch and poll
 *  with at most @p workers live until nothing is pending or running. */
bool
drain(Scheduler &scheduler, std::size_t workers)
{
    return pollUntil(scheduler, [&] {
        while (scheduler.runningCount() < workers &&
               scheduler.dispatchOne() >= 0) {
        }
        return scheduler.runningCount() == 0;
    });
}

std::int64_t
counter(const CampaignReport &report, const std::string &name)
{
    return report.metrics.at(name).asInt();
}

TEST(SchedulerPaths, QueuePathAndShardFileNames)
{
    EXPECT_EQ(queuePathFor("/x/state"), "/x/state/queue.json");
    // A whole-sweep shard carries no marker, like runSpec's output.
    EXPECT_EQ(shardFileName("smoke", 0, 1), "BENCH_smoke.json");
    EXPECT_EQ(shardFileName("smoke", 0, 0), "BENCH_smoke.json");
    EXPECT_EQ(shardFileName("smoke", 2, 4), "BENCH_smoke.shard2of4.json");
    EXPECT_EQ(Orchestrator::shardFileName("fig13", 1, 3),
              "BENCH_fig13.shard1of3.json");
    EXPECT_EQ(Orchestrator::queuePath("s"), queuePathFor("s"));
}

TEST(AdmitCampaign, DefaultShardCountIsFourPerWorkerCappedAtTheJobCount)
{
    const std::string dir = test::scratchDir("defaultshards");
    // specs/smoke.json expands to 2 x 3 x 3 = 18 jobs.
    const auto shardsFor = [&](std::int32_t workers) {
        const std::string state =
            dir + "/w" + std::to_string(workers);
        return admitCampaign(test::kSmokeSpec, state, 0, workers, true,
                             0)
            .state.shardCount;
    };
    EXPECT_EQ(shardsFor(0), 1);
    EXPECT_EQ(shardsFor(1), 4);
    EXPECT_EQ(shardsFor(3), 12);
    EXPECT_EQ(shardsFor(10), 18);
}

TEST(AdmitCampaign, SavesAQueueOfContentAddressedPendingTasks)
{
    const std::string dir = test::scratchDir("admit");
    const std::string relativeSpec =
        std::filesystem::relative(test::kSmokeSpec).string();
    const CampaignAdmission admission =
        admitCampaign(relativeSpec, dir + "/state", 3, 2, true, 0);

    EXPECT_STREQ(admission.leg, "submit");
    EXPECT_EQ(admission.jobs.size(), 18u);
    const QueueState &state = admission.state;
    EXPECT_EQ(state.campaign, "smoke");
    // Stored absolute, so `lsqca resume` works from any directory.
    EXPECT_EQ(state.specPath,
              std::filesystem::absolute(test::kSmokeSpec)
                  .lexically_normal()
                  .string());
    EXPECT_EQ(state.shardCount, 3);
    EXPECT_TRUE(state.noTiming);
    EXPECT_EQ(state.maxAttempts, 3);

    const std::vector<std::string> prints = api::shardFingerprints(
        admission.spec, admission.jobs, 3, true);
    ASSERT_EQ(state.tasks.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const ShardTask &task = state.tasks[i];
        EXPECT_EQ(task.index, static_cast<std::int32_t>(i));
        EXPECT_EQ(task.status, TaskStatus::Pending);
        EXPECT_EQ(task.attempts, 0);
        EXPECT_EQ(task.fingerprint, prints[i]);
        EXPECT_EQ(task.mode, ""); // an exact campaign
    }
    EXPECT_EQ(QueueState::load(queuePathFor(dir + "/state")).toJson().dump(),
              state.toJson().dump());
}

TEST(AdmitCampaign, TimingAndNoTimingCampaignsNeverShareFingerprints)
{
    const std::string dir = test::scratchDir("timingprints");
    const QueueState exact =
        admitCampaign(test::kSmokeSpec, dir + "/a", 2, 2, true, 0).state;
    const QueueState timed =
        admitCampaign(test::kSmokeSpec, dir + "/b", 2, 2, false, 0).state;
    const QueueState again =
        admitCampaign(test::kSmokeSpec, dir + "/c", 2, 2, true, 0).state;
    for (std::size_t i = 0; i < 2; ++i) {
        // Timed output bytes differ, so they must not hit each other
        // in a shared cache; the same campaign always re-derives.
        EXPECT_NE(exact.tasks[i].fingerprint, timed.tasks[i].fingerprint);
        EXPECT_EQ(exact.tasks[i].fingerprint, again.tasks[i].fingerprint);
    }
    EXPECT_NE(exact.tasks[0].fingerprint, exact.tasks[1].fingerprint);
}

TEST(AdmitCampaign, RefusesAnOccupiedStateDirAndLeavesItsQueueAlone)
{
    const std::string dir = test::scratchDir("occupied");
    admitSmoke(dir + "/state", 2);
    const std::string queue = queuePathFor(dir + "/state");
    const std::string before = fsutil::readFile(queue);
    EXPECT_THROW(admitSmoke(dir + "/state", 5), ConfigError);
    EXPECT_EQ(fsutil::readFile(queue), before);
}

TEST(ReopenCampaign, RefusesAStateDirWithoutAQueue)
{
    const std::string dir = test::scratchDir("noqueue");
    try {
        reopenCampaign(dir, 0);
        FAIL() << "reopened a directory without queue.json";
    } catch (const ConfigError &error) {
        EXPECT_NE(std::string(error.what()).find("lsqca submit"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ReopenCampaign, RequeuesStrandedTasksAndKeepsTheirAttempts)
{
    const std::string dir = test::scratchDir("stranded");
    const std::string state = dir + "/state";
    QueueState queue = admitSmoke(state, 3).state;
    // The submit process died with shard 0 on its second attempt and shard 1
    // already merged-ready.
    queue.tasks[0].status = TaskStatus::Running;
    queue.tasks[0].attempts = 2;
    queue.tasks[1].status = TaskStatus::Done;
    queue.tasks[1].attempts = 1;
    queue.tasks[1].output = "shards/BENCH_smoke.shard1of3.json";
    queue.save(queuePathFor(state));

    const CampaignAdmission reopened = reopenCampaign(state, 0);
    EXPECT_STREQ(reopened.leg, "resume");
    EXPECT_EQ(reopened.jobs.size(), 18u);
    const QueueState &after = reopened.state;
    EXPECT_EQ(after.tasks[0].status, TaskStatus::Pending);
    EXPECT_EQ(after.tasks[0].attempts, 2);
    EXPECT_EQ(after.tasks[1].status, TaskStatus::Done);
    EXPECT_EQ(after.tasks[1].output, "shards/BENCH_smoke.shard1of3.json");
    EXPECT_EQ(after.tasks[2].status, TaskStatus::Pending);
    EXPECT_EQ(after.tasks[2].attempts, 0);
    EXPECT_EQ(QueueState::load(queuePathFor(state)).toJson().dump(),
              after.toJson().dump());
}

TEST(ReopenCampaign, RaisedCapReopensOnlyFailedTasksBelowIt)
{
    const std::string dir = test::scratchDir("raisedcap");
    const std::string state = dir + "/state";
    QueueState queue = admitSmoke(state, 2, 2).state;
    queue.tasks[0].status = TaskStatus::Failed;
    queue.tasks[0].attempts = 2;
    queue.save(queuePathFor(state));

    // An equal cap changes nothing.
    EXPECT_EQ(reopenCampaign(state, 2).state.tasks[0].status,
              TaskStatus::Failed);

    // A raised cap reopens the shard and is saved.
    QueueState raised = reopenCampaign(state, 3).state;
    EXPECT_EQ(raised.maxAttempts, 3);
    EXPECT_EQ(raised.tasks[0].status, TaskStatus::Pending);
    EXPECT_EQ(raised.tasks[0].attempts, 2);
    EXPECT_EQ(QueueState::load(queuePathFor(state)).maxAttempts, 3);

    // It fails again at the new cap: a lower request neither reopens
    // it nor lowers the cap.
    raised.tasks[0].status = TaskStatus::Failed;
    raised.tasks[0].attempts = 3;
    raised.save(queuePathFor(state));
    const QueueState lowered = reopenCampaign(state, 1).state;
    EXPECT_EQ(lowered.maxAttempts, 3);
    EXPECT_EQ(lowered.tasks[0].status, TaskStatus::Failed);
    EXPECT_EQ(lowered.tasks[1].status, TaskStatus::Pending);
}

TEST(ReopenCampaign, RefusesASpecWhoseNameChanged)
{
    const std::string dir = test::scratchDir("renamed");
    const std::string spec = dir + "/smoke.json";
    fsutil::copyFileAtomic(test::kSmokeSpec, spec);
    admitCampaign(spec, dir + "/state", 2, 2, true, 0);

    std::string text = fsutil::readFile(spec);
    const std::string from = "\"name\": \"smoke\"";
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), "\"name\": \"smoke2\"");
    fsutil::writeFileAtomic(spec, text);

    try {
        reopenCampaign(dir + "/state", 0);
        FAIL() << "reopened a campaign whose spec was renamed";
    } catch (const ConfigError &error) {
        EXPECT_NE(std::string(error.what()).find("does not match"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Scheduler, ConstructorRejectsIncompleteOptions)
{
    const std::string dir = test::scratchDir("badoptions");
    const CampaignAdmission admission = admitSmoke(dir + "/state", 2);

    SchedulerOptions noState = baseOptions(dir + "/state");
    noState.stateDir = "";
    EXPECT_THROW(Scheduler scheduler(noState, admission), ConfigError);

    SchedulerOptions noWorker = baseOptions(dir + "/state");
    noWorker.workerExe = "";
    EXPECT_THROW(Scheduler scheduler(noWorker, admission), ConfigError);

    SchedulerOptions eager = baseOptions(dir + "/state");
    eager.stragglerFactor = 0.5;
    EXPECT_THROW(Scheduler scheduler(eager, admission), ConfigError);

    // None of the refusals opened a journal.
    EXPECT_FALSE(fsutil::exists(Journal::pathFor(dir + "/state")));
}

TEST(Scheduler, ConstructionJournalsTheAdmissionLeg)
{
    const std::string dir = test::scratchDir("leg");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    options.clock = JournalClock::Logical;
    options.workers = 3;
    {
        Scheduler scheduler(options, admitSmoke(state, 2));
    }
    {
        Scheduler scheduler(options, reopenCampaign(state, 0));
    }
    const std::vector<Json> lines = events(state);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].at("event").asString(), "journal");
    const Json &submit = lines[1];
    EXPECT_EQ(submit.at("event").asString(), "submit");
    EXPECT_EQ(submit.at("campaign").asString(), "smoke");
    EXPECT_EQ(submit.at("shards").asInt(), 2);
    EXPECT_EQ(submit.at("workers").asInt(), 3);
    EXPECT_EQ(submit.at("max_attempts").asInt(), 3);
    EXPECT_TRUE(submit.at("no_timing").asBool());
    // The reopen continues the same journal with a resume leg.
    EXPECT_EQ(lines[2].at("event").asString(), "resume");
    EXPECT_EQ(lines[2].at("seq").asInt(), 3);
}

TEST(Scheduler, DispatchRecordsTheAttemptBeforeTheWorkerReports)
{
    const std::string dir = test::scratchDir("dispatch");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    // Workers hold long enough that nothing below races their exit.
    options.extraWorkerArgs = {"--test-sleep-seconds", "30"};
    Scheduler scheduler(options, admitSmoke(state, 2));
    scheduler.cachePass();

    EXPECT_EQ(scheduler.dispatchOne(), 0);
    EXPECT_EQ(scheduler.runningCount(), 1u);
    EXPECT_EQ(scheduler.progress().spawned, 1);
    const QueueState onDisk = QueueState::load(queuePathFor(state));
    EXPECT_EQ(onDisk.tasks[0].status, TaskStatus::Running);
    EXPECT_EQ(onDisk.tasks[0].attempts, 1);
    EXPECT_EQ(onDisk.tasks[1].status, TaskStatus::Pending);

    const std::vector<Json> spawns = eventsNamed(state, "spawn");
    ASSERT_EQ(spawns.size(), 1u);
    EXPECT_EQ(spawns[0].at("shard").asInt(), 0);
    EXPECT_EQ(spawns[0].at("attempt").asInt(), 1);
    EXPECT_EQ(spawns[0].at("worker").asInt(), 1);
    EXPECT_GT(spawns[0].at("pid").asInt(), 0);

    // A poll while the worker lives changes nothing.
    scheduler.pollWorkers();
    EXPECT_EQ(scheduler.runningCount(), 1u);
    EXPECT_TRUE(eventsNamed(state, "exit").empty());
}

TEST(Scheduler, DispatchTakesTheLowestFreeWorkerSlot)
{
    const std::string dir = test::scratchDir("slots");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    // Shard 1 never finishes on its own; shards 0 and 2 run for real.
    options.workerExe = writeWorker(
        dir + "/worker.sh", "case \"$*\" in *\"--shard 1/3 \"*) exec "
                            "sleep 30 ;; esac\n" +
                                execCli());
    Scheduler scheduler(options, admitSmoke(state, 3));
    scheduler.cachePass();

    EXPECT_EQ(scheduler.dispatchOne(), 0);
    EXPECT_EQ(scheduler.dispatchOne(), 1);
    ASSERT_TRUE(pollUntil(scheduler,
                          [&] { return scheduler.runningCount() == 1; }));
    // Shard 0's slot is free again; shard 2 takes it, not slot 3.
    EXPECT_EQ(scheduler.dispatchOne(), 2);
    EXPECT_EQ(scheduler.dispatchOne(), -1);

    const std::vector<Json> spawns = eventsNamed(state, "spawn");
    ASSERT_EQ(spawns.size(), 3u);
    EXPECT_EQ(spawns[0].at("worker").asInt(), 1);
    EXPECT_EQ(spawns[1].at("worker").asInt(), 2);
    EXPECT_EQ(spawns[2].at("shard").asInt(), 2);
    EXPECT_EQ(spawns[2].at("worker").asInt(), 1);
}

TEST(Scheduler, KillWorkersLeavesTheKilledAttemptsRunningInTheQueue)
{
    const std::string dir = test::scratchDir("kill");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    options.extraWorkerArgs = {"--test-sleep-seconds", "30"};
    Scheduler scheduler(options, admitSmoke(state, 3));
    scheduler.cachePass();
    EXPECT_EQ(scheduler.dispatchOne(), 0);
    EXPECT_EQ(scheduler.dispatchOne(), 1);

    scheduler.killWorkers();
    EXPECT_EQ(scheduler.runningCount(), 0u);
    // What a dead submit process leaves behind: attempts on the books, tasks
    // still running, and no exit events for the killed attempts.
    const QueueState onDisk = QueueState::load(queuePathFor(state));
    EXPECT_EQ(onDisk.tasks[0].status, TaskStatus::Running);
    EXPECT_EQ(onDisk.tasks[1].status, TaskStatus::Running);
    EXPECT_EQ(onDisk.tasks[2].status, TaskStatus::Pending);
    EXPECT_EQ(onDisk.tasks[0].attempts, 1);
    EXPECT_EQ(eventsNamed(state, "spawn").size(), 2u);
    EXPECT_TRUE(eventsNamed(state, "exit").empty());
    // Nothing left to reap on the next poll.
    scheduler.pollWorkers();
    EXPECT_EQ(scheduler.progress().retries, 0);
}

TEST(Scheduler, ShutdownThenFinishClosesAResumableInterruptedLeg)
{
    const std::string dir = test::scratchDir("shutdown");
    const std::string golden = goldenRun(test::kSmokeSpec, dir + "/golden");
    const std::string state = dir + "/state";
    {
        SchedulerOptions options = baseOptions(state);
        options.extraWorkerArgs = {"--test-sleep-seconds", "30"};
        Scheduler scheduler(options, admitSmoke(state, 2));
        scheduler.cachePass();
        ASSERT_EQ(scheduler.dispatchOne(), 0);
        scheduler.killWorkers();
        scheduler.recordShutdown(SIGTERM);
        const CampaignReport report = scheduler.finish(true);

        EXPECT_TRUE(report.interrupted);
        EXPECT_FALSE(report.complete);
        EXPECT_EQ(report.mergedPath, "");
        EXPECT_EQ(report.spawned, 1);
        EXPECT_EQ(report.queue.tasks[0].status, TaskStatus::Running);
        EXPECT_TRUE(fsutil::exists(report.metricsPath));
    }
    const std::vector<Json> lines = events(state);
    ASSERT_GE(lines.size(), 2u);
    const Json &shutdown = lines[lines.size() - 2];
    EXPECT_EQ(shutdown.at("event").asString(), "shutdown");
    EXPECT_EQ(shutdown.at("signal").asInt(), SIGTERM);
    const Json &done = lines.back();
    EXPECT_EQ(done.at("event").asString(), "done");
    EXPECT_TRUE(done.at("interrupted").asBool());
    EXPECT_FALSE(done.at("complete").asBool());
    EXPECT_EQ(done.at("spawned").asInt(), 1);

    // The resume leg re-pends the killed attempt and finishes golden.
    Scheduler resumed(baseOptions(state), reopenCampaign(state, 0));
    resumed.cachePass();
    ASSERT_TRUE(drain(resumed, 2));
    const CampaignReport report = resumed.finish(false);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.queue.tasks[0].attempts, 2);
    EXPECT_EQ(report.queue.tasks[1].attempts, 1);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
}

TEST(Scheduler, DestructionKillsAndReapsLiveWorkers)
{
    const std::string dir = test::scratchDir("destroy");
    const std::string state = dir + "/state";
    std::vector<pid_t> pids;
    {
        SchedulerOptions options = baseOptions(state);
        options.extraWorkerArgs = {"--test-sleep-seconds", "30"};
        Scheduler scheduler(options, admitSmoke(state, 2));
        scheduler.cachePass();
        ASSERT_EQ(scheduler.dispatchOne(), 0);
        ASSERT_EQ(scheduler.dispatchOne(), 1);
        for (const Json &spawn : eventsNamed(state, "spawn"))
            pids.push_back(static_cast<pid_t>(spawn.at("pid").asInt()));
    }
    ASSERT_EQ(pids.size(), 2u);
    for (const pid_t pid : pids) {
        // Killed *and* reaped: not even a zombie remains.
        errno = 0;
        EXPECT_EQ(::kill(pid, 0), -1) << "pid " << pid;
        EXPECT_EQ(errno, ESRCH) << "pid " << pid;
    }
    const QueueState onDisk = QueueState::load(queuePathFor(state));
    EXPECT_EQ(onDisk.countWithStatus(TaskStatus::Running), 2u);
}

TEST(Scheduler, StepwiseDriveMergesByteIdenticalToADirectRun)
{
    const std::string dir = test::scratchDir("stepwise");
    const std::string golden = goldenRun(test::kSmokeSpec, dir + "/golden");
    const std::string state = dir + "/state";
    Scheduler scheduler(baseOptions(state), admitSmoke(state, 3));
    scheduler.cachePass();
    EXPECT_EQ(scheduler.progress().cacheHits, 0);
    ASSERT_TRUE(drain(scheduler, 2));
    // An exact campaign never escalates.
    EXPECT_FALSE(scheduler.maybeEscalate());
    const CampaignReport report = scheduler.finish(false);

    EXPECT_TRUE(report.complete);
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.spawned, 3);
    EXPECT_EQ(report.retries, 0);
    EXPECT_EQ(report.mergedPath, state + "/BENCH_smoke.json");
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
    for (const ShardTask &task : report.queue.tasks) {
        EXPECT_EQ(task.status, TaskStatus::Done);
        EXPECT_EQ(task.attempts, 1);
        EXPECT_GT(task.wallSeconds, 0.0);
        EXPECT_EQ(task.output,
                  "shards/" + shardFileName("smoke", task.index, 3));
    }

    // The merge event names the artifact relative to the state dir.
    const std::vector<Json> merges = eventsNamed(state, "merge");
    ASSERT_EQ(merges.size(), 1u);
    EXPECT_EQ(merges[0].at("path").asString(), "BENCH_smoke.json");
    EXPECT_EQ(merges[0].at("bytes").asInt(),
              static_cast<std::int64_t>(golden.size()));
    EXPECT_EQ(eventsNamed(state, "task_done").size(), 3u);
    EXPECT_TRUE(eventsNamed(state, "done")
                    .back()
                    .at("complete")
                    .asBool());
}

TEST(Scheduler, MetricsSnapshotAgreesWithTheReport)
{
    const std::string dir = test::scratchDir("metrics");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    options.workers = 1;
    Scheduler scheduler(options, admitSmoke(state, 2));
    scheduler.cachePass();
    ASSERT_TRUE(drain(scheduler, 1));
    const CampaignReport report = scheduler.finish(false);

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.metricsPath, state + "/metrics.json");
    EXPECT_EQ(fsutil::readFile(report.metricsPath),
              report.metrics.dump(2) + "\n");
    EXPECT_EQ(counter(report, "service.spawns"), report.spawned);
    EXPECT_EQ(counter(report, "service.tasks.done"), 2);
    EXPECT_EQ(counter(report, "service.cache.misses"), 2);
    EXPECT_EQ(counter(report, "service.cache.hits"), 0);
    EXPECT_EQ(counter(report, "service.retries"), 0);
    EXPECT_EQ(counter(report, "service.bytes_merged"),
              static_cast<std::int64_t>(
                  fsutil::readFile(report.mergedPath).size()));
    EXPECT_EQ(report.metrics.at("service.workers").asDouble(), 1.0);
    EXPECT_EQ(report.metrics.at("service.shard_wall_seconds")
                  .at("count")
                  .asInt(),
              2);
}

TEST(Scheduler, OutDirReceivesTheMergedArtifact)
{
    const std::string dir = test::scratchDir("outdir");
    const std::string golden = goldenRun(test::kSmokeSpec, dir + "/golden");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    options.outDir = dir + "/out";
    Scheduler scheduler(options, admitSmoke(state, 2));
    scheduler.cachePass();
    ASSERT_TRUE(drain(scheduler, 2));
    const CampaignReport report = scheduler.finish(false);

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.mergedPath, dir + "/out/BENCH_smoke.json");
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
    EXPECT_FALSE(fsutil::exists(state + "/BENCH_smoke.json"));
    // Outside the state dir, the merge event keeps the full path.
    const std::vector<Json> merges = eventsNamed(state, "merge");
    ASSERT_EQ(merges.size(), 1u);
    EXPECT_EQ(merges[0].at("path").asString(), report.mergedPath);
}

TEST(Scheduler, WorkerArgvCarriesTheCampaignPolicy)
{
    const std::string dir = test::scratchDir("argv");
    const std::string state = dir + "/state";
    const std::string argvLog = dir + "/argv.log";
    SchedulerOptions options = baseOptions(state);
    options.workerExe = writeWorker(
        dir + "/worker.sh",
        "echo \"$*\" >> '" + argvLog + "'\n" + execCli());
    options.threadsPerWorker = 2;
    options.timeoutSeconds = 30.1;
    options.extraWorkerArgs = {"--test-sleep-seconds", "0.001"};
    // Every first attempt dies after one job; the retry runs clean.
    options.firstAttemptExtraArgs = {"--die-after", "1"};
    const CampaignAdmission admission = admitSmoke(state, 2);
    const std::string spec = admission.state.specPath;
    const std::string print0 = admission.state.tasks[0].fingerprint;
    Scheduler scheduler(options, admission);
    scheduler.cachePass();
    ASSERT_TRUE(drain(scheduler, 1));
    const CampaignReport report = scheduler.finish(false);
    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.retries, 2);

    std::vector<std::string> lines;
    const std::string text = fsutil::readFile(argvLog);
    std::size_t from = 0;
    while (from < text.size()) {
        std::size_t to = text.find('\n', from);
        if (to == std::string::npos)
            to = text.size();
        lines.push_back(text.substr(from, to - from));
        from = to + 1;
    }
    ASSERT_EQ(lines.size(), 4u);
    const std::string common =
        "run " + spec + " --shard 0/2 --threads 2 --out " + state +
        "/shards --job-cache " + state +
        "/cache --no-timing --timeout-seconds 30.100000000000001 "
        "--seed-check " +
        print0 + " --test-sleep-seconds 0.001";
    // The timeout survives the argv round trip at full precision.
    EXPECT_EQ(lines[0], common + " --die-after 1");
    EXPECT_EQ(lines[1], common);
}

TEST(Scheduler, DisabledCacheSpawnsEveryShardWithoutJobCacheOrSeedCheck)
{
    const std::string dir = test::scratchDir("nocache");
    const std::string state = dir + "/state";
    const std::string argvLog = dir + "/argv.log";
    SchedulerOptions options = baseOptions(state);
    options.cacheDir = "";
    options.seedCheck = false;
    options.workerExe = writeWorker(
        dir + "/worker.sh",
        "echo \"$*\" >> '" + argvLog + "'\n" + execCli());
    Scheduler scheduler(options, admitSmoke(state, 2));
    scheduler.cachePass();
    // With no cache, every shard stays pending for a worker.
    EXPECT_EQ(scheduler.progress().cacheHits, 0);
    ASSERT_TRUE(drain(scheduler, 1));
    const CampaignReport report = scheduler.finish(false);

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.spawned, 2);
    EXPECT_EQ(counter(report, "service.cache.misses"), 2);
    EXPECT_EQ(report.jobCacheHits, 0);
    EXPECT_FALSE(fsutil::exists(state + "/cache"));
    const std::string text = fsutil::readFile(argvLog);
    EXPECT_EQ(text.find("--job-cache"), std::string::npos) << text;
    EXPECT_EQ(text.find("--seed-check"), std::string::npos) << text;
    EXPECT_NE(text.find("--shard 1/2"), std::string::npos) << text;
}

TEST(Scheduler, StragglerPastTheDeadlineIsKilledAndRequeued)
{
    const std::string dir = test::scratchDir("straggler");
    const std::string golden = goldenRun(test::kSmokeSpec, dir + "/golden");
    const std::string state = dir + "/state";
    const std::string mark = dir + "/slow-once";
    SchedulerOptions options = baseOptions(state);
    // Shard 1's first attempt hangs; every other attempt is real.
    options.workerExe = writeWorker(
        dir + "/worker.sh",
        "case \"$*\" in *\"--shard 1/2 \"*)\n"
        "  if [ ! -e '" + mark + "' ]; then : > '" + mark +
            "'; exec sleep 30; fi ;;\n"
            "esac\n" +
            execCli());
    // Deadline = 1 x the median done wall, no floor.
    options.stragglerFactor = 1.0;
    options.minStragglerSeconds = 0.0;
    // Two attempts: the retry is the final attempt, which is never
    // killed, so exactly one straggler kill happens.
    Scheduler scheduler(options, admitSmoke(state, 2, 2));
    scheduler.cachePass();
    ASSERT_TRUE(drain(scheduler, 2));
    const CampaignReport report = scheduler.finish(false);

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.stragglersKilled, 1);
    EXPECT_EQ(report.retries, 1);
    EXPECT_EQ(report.queue.tasks[0].attempts, 1);
    EXPECT_EQ(report.queue.tasks[1].attempts, 2);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
    EXPECT_EQ(counter(report, "service.retries.straggler"), 1);

    const std::vector<Json> retries = eventsNamed(state, "retry");
    ASSERT_EQ(retries.size(), 1u);
    EXPECT_EQ(retries[0].at("shard").asInt(), 1);
    EXPECT_EQ(retries[0].at("cause").asString(), "straggler");
    EXPECT_NE(retries[0].at("detail").asString().find("straggler killed"),
              std::string::npos);
    bool sawKill = false;
    for (const Json &exit : eventsNamed(state, "exit"))
        if (exit.find("killed") != nullptr) {
            sawKill = true;
            EXPECT_EQ(exit.at("shard").asInt(), 1);
            EXPECT_EQ(exit.at("attempt").asInt(), 1);
        }
    EXPECT_TRUE(sawKill);
}

TEST(Scheduler, FinalAttemptIsNeverKilledAsAStraggler)
{
    const std::string dir = test::scratchDir("finalattempt");
    const std::string golden = goldenRun(test::kSmokeSpec, dir + "/golden");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    // Shard 1 runs a full second behind shard 0.
    options.workerExe = writeWorker(
        dir + "/worker.sh",
        "case \"$*\" in *\"--shard 1/2 \"*) sleep 1 ;; esac\n" +
            execCli());
    options.stragglerFactor = 1.0;
    options.minStragglerSeconds = 0.0;
    Scheduler scheduler(options, admitSmoke(state, 2, 1));
    scheduler.cachePass();
    ASSERT_TRUE(drain(scheduler, 2));
    const CampaignReport report = scheduler.finish(false);

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.stragglersKilled, 0);
    EXPECT_EQ(report.retries, 0);
    // Shard 1 outlived the deadline (shard 0's wall) and still won.
    EXPECT_GT(report.queue.tasks[1].wallSeconds,
              report.queue.tasks[0].wallSeconds);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
}

/** One way a worker attempt can end badly, and how it is filed. */
struct FailureCase
{
    std::string name;
    /** /bin/sh body of the worker ("" = no worker file at all). */
    std::string body;
    std::string cause;
    /** Expected start of queue.json's lastError. */
    std::string reason;
    /** The exit event's outcome field and value. */
    std::string exitField;
    std::int64_t exitValue;
};

void
PrintTo(const FailureCase &value, std::ostream *os)
{
    *os << value.name;
}

class WorkerFailure : public ::testing::TestWithParam<FailureCase>
{
};

TEST_P(WorkerFailure, IsRetriedThenFailedUnderItsCause)
{
    const FailureCase &param = GetParam();
    const std::string dir = test::scratchDir("failure");
    const std::string state = dir + "/state";
    SchedulerOptions options = baseOptions(state);
    options.workerExe = param.body.empty()
                            ? dir + "/missing-worker"
                            : writeWorker(dir + "/worker.sh", param.body);
    Scheduler scheduler(options, admitSmoke(state, 1, 2));
    scheduler.cachePass();
    ASSERT_TRUE(drain(scheduler, 1));
    const CampaignReport report = scheduler.finish(false);

    EXPECT_FALSE(report.complete);
    EXPECT_EQ(report.mergedPath, "");
    EXPECT_EQ(report.spawned, 2);
    EXPECT_EQ(report.retries, 1);
    const ShardTask &task = report.queue.tasks[0];
    EXPECT_EQ(task.status, TaskStatus::Failed);
    EXPECT_EQ(task.attempts, 2);
    EXPECT_EQ(task.lastError.rfind(param.reason, 0), 0u) << task.lastError;
    EXPECT_EQ(counter(report, "service.retries." + param.cause), 1);
    EXPECT_EQ(counter(report, "service.tasks.failed"), 1);

    const std::vector<Json> retries = eventsNamed(state, "retry");
    ASSERT_EQ(retries.size(), 1u);
    EXPECT_EQ(retries[0].at("attempt").asInt(), 1);
    EXPECT_EQ(retries[0].at("cause").asString(), param.cause);
    const std::vector<Json> failed = eventsNamed(state, "task_failed");
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0].at("attempts").asInt(), 2);
    EXPECT_EQ(failed[0].at("cause").asString(), param.cause);
    const std::vector<Json> exits = eventsNamed(state, "exit");
    ASSERT_EQ(exits.size(), 2u);
    for (const Json &exit : exits) {
        const Json *value = exit.find(param.exitField);
        ASSERT_NE(value, nullptr) << exit.dump(0);
        if (value->isBool())
            EXPECT_TRUE(value->asBool());
        else
            EXPECT_EQ(value->asInt(), param.exitValue);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Causes, WorkerFailure,
    ::testing::Values(
        FailureCase{"Timeout", "exit 124", "timeout",
                    "worker exit 124 (timed out); see ", "code", 124},
        FailureCase{"DiedMidShard", "exit 75", "crash",
                    "worker exit 75 (died mid-shard); see ", "code", 75},
        FailureCase{"NonzeroExit", "exit 3", "crash", "worker exit 3; see ",
                    "code", 3},
        FailureCase{"Signal", "kill -9 $$", "crash",
                    "worker signal 9; see ", "signal", 9},
        FailureCase{"NoOutput", "exit 0", "no_output",
                    "worker exited 0 without writing BENCH_smoke.json",
                    "ok", 1},
        FailureCase{"Unexecutable", "", "crash", "worker exit 127; see ",
                    "code", 127}),
    [](const ::testing::TestParamInfo<FailureCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace lsqca::service
