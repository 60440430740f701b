/**
 * @file
 * Black-box coverage of the CLI surface the orchestrator rides on:
 * worker flags (--timeout-seconds, --seed-check, --die-after), the
 * directory form of `merge` with duplicate-entry rejection, the
 * submit/status/resume round trip, and SIGTERM shutdown of a live
 * submit — each against the real binary, the way CI and other
 * machines invoke it.
 */

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/jsonl.h"
#include "common/subprocess.h"
#include "service/queue.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

struct CliResult
{
    int exitCode = -1;
    bool signaled = false;
    std::string output; // stdout + stderr
};

/** Run the real lsqca binary and capture everything. */
CliResult
runCli(std::vector<std::string> args, const std::string &logPath)
{
    proc::Command command;
    command.argv = {test::kCliBin};
    command.argv.insert(command.argv.end(), args.begin(), args.end());
    command.logPath = logPath;
    const proc::Status status = proc::wait(proc::spawn(command));
    CliResult result;
    result.exitCode = status.exitCode;
    result.signaled = status.signaled;
    result.output = fsutil::exists(logPath)
                        ? fsutil::readFile(logPath)
                        : std::string();
    return result;
}

TEST(Cli, TimeoutSecondsAbortsWithCode124)
{
    const std::string dir = test::scratchDir("timeout");
    // The full fig13 sweep takes well over 10 ms of synthesis +
    // simulation, so the watchdog always wins this race.
    const CliResult result =
        runCli({"run", test::kFig13Spec, "--timeout-seconds", "0.01",
                "--out", dir + "/out"},
               dir + "/log");
    EXPECT_EQ(result.exitCode, 124);
    EXPECT_NE(result.output.find("exceeded --timeout-seconds"),
              std::string::npos)
        << result.output;
}

TEST(Cli, DieAfterExitsMidShardWithoutOutput)
{
    const std::string dir = test::scratchDir("dieafter");
    const CliResult result =
        runCli({"run", test::kSmokeSpec, "--shard", "0/2",
                "--die-after", "1", "--no-timing", "--out",
                dir + "/out"},
               dir + "/log");
    EXPECT_EQ(result.exitCode, 75);
    EXPECT_FALSE(fsutil::exists(
        dir + "/out/BENCH_smoke.shard0of2.json"));
}

TEST(Cli, SeedCheckMismatchFailsAndMalformedValueIsRejected)
{
    const std::string dir = test::scratchDir("seedcheck");
    const CliResult mismatch =
        runCli({"run", test::kSmokeSpec, "--seed-check",
                "0123456789abcdef", "--out", dir + "/out"},
               dir + "/log1");
    EXPECT_EQ(mismatch.exitCode, 1);
    EXPECT_NE(mismatch.output.find("--seed-check mismatch"),
              std::string::npos)
        << mismatch.output;

    const CliResult malformed =
        runCli({"run", test::kSmokeSpec, "--seed-check", "nope"},
               dir + "/log2");
    EXPECT_EQ(malformed.exitCode, 1);
    EXPECT_NE(malformed.output.find("16-hex-digit"),
              std::string::npos)
        << malformed.output;
}

TEST(Cli, MergeAcceptsADirectoryOfShards)
{
    const std::string dir = test::scratchDir("mergedir");
    for (const char *shard : {"0/2", "1/2"})
        ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--shard", shard,
                          "--no-timing", "--out", dir + "/shards"},
                         dir + "/runlog")
                      .exitCode,
                  0);
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/direct"},
                     dir + "/runlog")
                  .exitCode,
              0);

    const CliResult merged =
        runCli({"merge", dir + "/shards", "--out",
                dir + "/merged.json"},
               dir + "/mergelog");
    EXPECT_EQ(merged.exitCode, 0);
    EXPECT_EQ(fsutil::readFile(dir + "/merged.json"),
              fsutil::readFile(dir + "/direct/BENCH_smoke.json"));
}

TEST(Cli, MergeRejectsDuplicateEntriesWithPositions)
{
    const std::string dir = test::scratchDir("mergedup");
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/out"},
                     dir + "/runlog")
                  .exitCode,
              0);
    const std::string doc = dir + "/out/BENCH_smoke.json";
    const CliResult result =
        runCli({"merge", doc, doc}, dir + "/mergelog");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("duplicate entry \""),
              std::string::npos)
        << result.output;
    // The error points at both offending documents by path.
    EXPECT_NE(result.output.find(doc), std::string::npos);
}

TEST(Cli, MergeRejectsADirectoryWithoutBenchFiles)
{
    const std::string dir = test::scratchDir("mergeempty");
    fsutil::makeDirs(dir + "/empty");
    const CliResult result =
        runCli({"merge", dir + "/empty"}, dir + "/log");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("no BENCH_*.json"),
              std::string::npos)
        << result.output;
}

TEST(Cli, UsageErrorPrintsOnePrefix)
{
    const std::string dir = test::scratchDir("usageerror");
    const CliResult result =
        runCli({"run", test::kSmokeSpec, "--bogus"}, dir + "/log");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_EQ(result.output.rfind("lsqca: config error: ", 0), 0u)
        << result.output;
    EXPECT_EQ(result.output.find("lsqca: lsqca: "), std::string::npos)
        << result.output;
}

TEST(Cli, SubmitStatusResumeRoundTrip)
{
    const std::string dir = test::scratchDir("campaign");
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/direct"},
                     dir + "/runlog")
                  .exitCode,
              0);

    // Interrupt mid-campaign (simulated orchestrator death killing a
    // worker mid-run), then resume to the byte-identical artifact.
    const CliResult interrupted = runCli(
        {"submit", test::kSmokeSpec, "--workers", "2", "--shards",
         "4", "--no-timing", "--state", dir + "/state",
         "--test-stop-after", "2"},
        dir + "/submitlog");
    EXPECT_EQ(interrupted.exitCode, 3);
    EXPECT_NE(interrupted.output.find("campaign interrupted"),
              std::string::npos)
        << interrupted.output;

    const CliResult status =
        runCli({"status", dir + "/state"}, dir + "/statuslog");
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_NE(status.output.find("campaign smoke"), std::string::npos);
    EXPECT_NE(status.output.find("running"), std::string::npos);

    const CliResult resumed =
        runCli({"resume", dir + "/state", "--workers", "2"},
               dir + "/resumelog");
    EXPECT_EQ(resumed.exitCode, 0);
    EXPECT_NE(resumed.output.find("4/4 shards done"),
              std::string::npos)
        << resumed.output;
    EXPECT_EQ(fsutil::readFile(dir + "/state/BENCH_smoke.json"),
              fsutil::readFile(dir + "/direct/BENCH_smoke.json"));
}

TEST(Cli, SigtermMidCampaignShutsDownAndResumes)
{
    const std::string dir = test::scratchDir("sigterm");
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/direct"},
                     dir + "/runlog")
                  .exitCode,
              0);

    // Every worker holds 0.3 s before simulating, so the campaign is
    // verifiably mid-flight once the journal shows a spawn.
    const std::string state = dir + "/state";
    proc::Command command;
    command.argv = {test::kCliBin, "submit", test::kSmokeSpec,
                    "--workers", "1", "--shards", "4", "--no-timing",
                    "--state", state, "--test-worker-sleep", "0.3"};
    command.logPath = dir + "/submitlog";
    const proc::Pid pid = proc::spawn(command);
    const std::string journal = state + "/events.jsonl";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    const auto hasSpawned = [&] {
        if (!fsutil::exists(journal))
            return false;
        // readLines drops a torn tail the submit is still appending.
        for (const Json &line : jsonl::readLines(journal).lines)
            if (line.at("event").asString() == "spawn")
                return true;
        return false;
    };
    while (!hasSpawned()) {
        if (std::chrono::steady_clock::now() > deadline) {
            proc::terminate(pid);
            proc::wait(pid);
            FAIL() << "no spawn journaled: "
                   << fsutil::readFile(command.logPath);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    const proc::Status status = proc::wait(pid);

    // Orderly shutdown: 128 + SIGTERM, and a resume hint.
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.exitCode, 128 + SIGTERM);
    const std::string output = fsutil::readFile(command.logPath);
    EXPECT_NE(output.find("interrupted by signal 15"), std::string::npos)
        << output;
    EXPECT_NE(output.find("lsqca resume"), std::string::npos) << output;

    // The journal closes the leg with `shutdown` (signal 15) and then
    // an interrupted, incomplete `done`.
    const std::vector<Json> lines = jsonl::readLines(journal).lines;
    ASSERT_GE(lines.size(), 2u);
    const Json &shutdownEvent = lines[lines.size() - 2];
    EXPECT_EQ(shutdownEvent.at("event").asString(), "shutdown");
    EXPECT_EQ(shutdownEvent.at("signal").asInt(), SIGTERM);
    const Json &done = lines.back();
    EXPECT_EQ(done.at("event").asString(), "done");
    EXPECT_TRUE(done.at("interrupted").asBool());
    EXPECT_FALSE(done.at("complete").asBool());

    // The killed attempt stays `running` in the saved queue; resume
    // re-pends it.
    const QueueState queue = QueueState::load(state + "/queue.json");
    EXPECT_EQ(queue.countWithStatus(TaskStatus::Running), 1u);
    EXPECT_LT(queue.countWithStatus(TaskStatus::Done), 4u);

    const CliResult resumed =
        runCli({"resume", state, "--workers", "2"}, dir + "/resumelog");
    EXPECT_EQ(resumed.exitCode, 0) << resumed.output;
    EXPECT_EQ(fsutil::readFile(state + "/BENCH_smoke.json"),
              fsutil::readFile(dir + "/direct/BENCH_smoke.json"));
}

TEST(Cli, StatusShowsEstimatorModeAndEscalations)
{
    const std::string dir = test::scratchDir("sampledstatus");
    // A sampled campaign whose target_ci nothing meets: both shards
    // run sampled, then escalate to exact reruns (docs/SAMPLING.md).
    const std::string spec = dir + "/sampled.json";
    fsutil::writeFileAtomic(spec, R"({
  "schema": "lsqca-spec-v2",
  "name": "escalate_cli",
  "name_template": "{benchmark}/{machine}",
  "estimator": {"mode": "sampled", "unit_instrs": 50,
                "warmup_instrs": 50, "period": 10,
                "target_ci": 0.0001},
  "axes": [
    {"axis": "benchmark", "values": [
      {"name": "adder", "bench": "adder", "params": {"width": 24}}]},
    {"axis": "machine", "values": [
      {"name": "point#1", "arch": {"sam": "point", "banks": 1}},
      {"name": "line#2", "arch": {"sam": "line", "banks": 2}}]}
  ]
})");
    const CliResult submitted =
        runCli({"submit", spec, "--workers", "2", "--shards", "2",
                "--no-timing", "--state", dir + "/state"},
               dir + "/submitlog");
    EXPECT_EQ(submitted.exitCode, 0);
    EXPECT_NE(submitted.output.find("2 escalated"), std::string::npos)
        << submitted.output;

    // Status renders the per-task estimator mode column and counts
    // the derived escalation tasks.
    const CliResult status =
        runCli({"status", dir + "/state"}, dir + "/statuslog");
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_NE(status.output.find("sampled"), std::string::npos)
        << status.output;
    EXPECT_NE(status.output.find("exact (escalated)"),
              std::string::npos)
        << status.output;
    EXPECT_NE(status.output.find("2 escalated"), std::string::npos)
        << status.output;
}

TEST(Cli, ReportReconstructsAnInterruptedCampaignFromTheJournal)
{
    const std::string dir = test::scratchDir("report");
    // Interrupt mid-campaign, resume, then report: the full history —
    // both legs, every spawn — comes from events.jsonl alone.
    const CliResult interrupted = runCli(
        {"submit", test::kSmokeSpec, "--workers", "2", "--shards",
         "4", "--no-timing", "--state", dir + "/state",
         "--clock", "logical", "--test-stop-after", "2"},
        dir + "/submitlog");
    EXPECT_EQ(interrupted.exitCode, 3);
    // A journal only reopens under its original clock: resuming with
    // the default (monotonic) clock is refused...
    const CliResult wrongClock =
        runCli({"resume", dir + "/state", "--workers", "2"},
               dir + "/wrongclocklog");
    EXPECT_EQ(wrongClock.exitCode, 1);
    EXPECT_NE(wrongClock.output.find("clock"), std::string::npos)
        << wrongClock.output;
    // ...and the matching clock continues the same journal.
    ASSERT_EQ(runCli({"resume", dir + "/state", "--workers", "2",
                      "--clock", "logical"},
                     dir + "/resumelog")
                  .exitCode,
              0);

    const CliResult report =
        runCli({"report", dir + "/state"}, dir + "/reportlog");
    EXPECT_EQ(report.exitCode, 0);
    EXPECT_NE(report.output.find("campaign smoke"), std::string::npos)
        << report.output;
    EXPECT_NE(report.output.find("status: complete"),
              std::string::npos);
    EXPECT_NE(report.output.find("2 legs"), std::string::npos)
        << report.output;
    EXPECT_NE(report.output.find("wall-clock breakdown"),
              std::string::npos);
    EXPECT_NE(report.output.find("worker utilization"),
              std::string::npos);

    // --chrome-trace publishes a Perfetto-loadable document whose
    // spans all sit on real worker tracks with monotone durations.
    const std::string tracePath = dir + "/trace.json";
    const CliResult traced =
        runCli({"report", dir + "/state", "--chrome-trace",
                tracePath},
               dir + "/tracelog");
    EXPECT_EQ(traced.exitCode, 0);
    EXPECT_NE(traced.output.find("chrome trace:"), std::string::npos)
        << traced.output;
    const Json doc = Json::parse(fsutil::readFile(tracePath));
    int spans = 0;
    for (const Json &event : doc.at("traceEvents").items())
        if (event.at("ph").asString() == "X") {
            ++spans;
            EXPECT_GE(event.at("dur").asDouble(), 0.0);
            EXPECT_GT(event.at("tid").asInt(), 0);
        }
    EXPECT_GE(spans, 4); // at least one attempt per shard
}

TEST(Cli, ReportIsByteIdenticalAcrossLogicalClockReruns)
{
    const std::string dir = test::scratchDir("reportbytes");
    const auto campaign = [&](const std::string &state,
                              const std::string &log) {
        EXPECT_EQ(runCli({"submit", test::kSmokeSpec, "--workers",
                          "1", "--shards", "2", "--no-timing",
                          "--state", state, "--clock", "logical"},
                         log)
                      .exitCode,
                  0);
        return runCli({"report", state}, log + ".report").output;
    };
    const std::string first = campaign(dir + "/a", dir + "/log1");
    const std::string second = campaign(dir + "/b", dir + "/log2");
    EXPECT_EQ(first, second);
    // Logical clock reports in event units, not seconds.
    EXPECT_NE(first.find("span_ev"), std::string::npos) << first;
}

TEST(Cli, ReportExplainsAMissingJournal)
{
    const std::string dir = test::scratchDir("reportnojournal");
    ASSERT_EQ(runCli({"submit", test::kSmokeSpec, "--workers", "1",
                      "--shards", "2", "--no-timing", "--state",
                      dir + "/state", "--no-journal"},
                     dir + "/submitlog")
                  .exitCode,
              0);
    EXPECT_FALSE(fsutil::exists(dir + "/state/events.jsonl"));
    const CliResult report =
        runCli({"report", dir + "/state"}, dir + "/reportlog");
    EXPECT_EQ(report.exitCode, 1);
    EXPECT_NE(report.output.find("no campaign journal"),
              std::string::npos)
        << report.output;
}

TEST(Cli, StatusShowsAgeColumnAndStragglerWarning)
{
    const std::string dir = test::scratchDir("statusage");
    ASSERT_EQ(runCli({"submit", test::kSmokeSpec, "--workers", "2",
                      "--shards", "2", "--no-timing", "--state",
                      dir + "/state"},
                     dir + "/submitlog")
                  .exitCode,
              0);
    const CliResult status =
        runCli({"status", dir + "/state"}, dir + "/statuslog");
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_NE(status.output.find("age_s"), std::string::npos)
        << status.output;

    // Splice a straggler-kill retry into the journal (the event the
    // orchestrator writes when it shoots a slow worker) and status
    // surfaces the explicit warning, pointing at `lsqca report`.
    const std::string journal = dir + "/state/events.jsonl";
    fsutil::writeFileAtomic(
        journal,
        fsutil::readFile(journal) +
            "{\"event\":\"retry\",\"seq\":999,\"t\":999,"
            "\"shard\":0,\"attempt\":1,\"cause\":\"straggler\"}\n");
    const CliResult warned =
        runCli({"status", dir + "/state"}, dir + "/warnlog");
    EXPECT_EQ(warned.exitCode, 0);
    EXPECT_NE(warned.output.find("warning: 1 straggler kill"),
              std::string::npos)
        << warned.output;
    EXPECT_NE(warned.output.find("lsqca report"), std::string::npos);
}

TEST(Cli, RunWritesAMetricsSnapshotOnRequest)
{
    const std::string dir = test::scratchDir("runmetrics");
    const CliResult result =
        runCli({"run", test::kSmokeSpec, "--threads", "2",
                "--no-timing", "--out", dir + "/out", "--metrics",
                dir + "/metrics.json"},
               dir + "/runlog");
    EXPECT_EQ(result.exitCode, 0);
    const Json snapshot =
        Json::parse(fsutil::readFile(dir + "/metrics.json"));
    EXPECT_GT(snapshot.at("sweep.jobs").asInt(), 0);
    EXPECT_GT(snapshot.at("sweep.job_wall_seconds").at("count")
                  .asInt(),
              0);
    // Two threads over the smoke jobs: each worker reports its busy
    // time.
    EXPECT_TRUE(snapshot.contains("sweep.worker.2.busy_seconds"));
    // The snapshot is an opt-in side channel: BENCH bytes match an
    // uninstrumented run exactly.
    const CliResult plain =
        runCli({"run", test::kSmokeSpec, "--threads", "2",
                "--no-timing", "--out", dir + "/plain"},
               dir + "/plainlog");
    EXPECT_EQ(plain.exitCode, 0);
    EXPECT_EQ(fsutil::readFile(dir + "/out/BENCH_smoke.json"),
              fsutil::readFile(dir + "/plain/BENCH_smoke.json"));
}

TEST(Cli, RunMetricsSnapshotHoldsOnlySweepInstruments)
{
    // `lsqca run --metrics` snapshots the sweep engine's instruments
    // and nothing else: one worker gauge per started thread.
    const std::string dir = test::scratchDir("runmetricskeys");
    const CliResult result =
        runCli({"run", test::kSmokeSpec, "--threads", "3",
                "--no-timing", "--out", dir + "/out", "--metrics",
                dir + "/metrics.json"},
               dir + "/runlog");
    EXPECT_EQ(result.exitCode, 0);
    const Json snapshot =
        Json::parse(fsutil::readFile(dir + "/metrics.json"));
    ASSERT_TRUE(snapshot.isObject());
    for (const auto &[key, value] : snapshot.members())
        EXPECT_EQ(key.rfind("sweep.", 0), 0u) << key;
    for (const char *key : {"sweep.worker.1.busy_seconds",
                            "sweep.worker.2.busy_seconds",
                            "sweep.worker.3.busy_seconds"})
        EXPECT_TRUE(snapshot.contains(key)) << key;
    EXPECT_FALSE(snapshot.contains("sweep.worker.4.busy_seconds"));
}

TEST(Cli, SubmitRejectsUnknownFlagsAndNonFileSpecs)
{
    const std::string dir = test::scratchDir("submitbad");
    EXPECT_EQ(runCli({"submit", test::kSmokeSpec, "--wrokers", "2"},
                     dir + "/log1")
                  .exitCode,
              1);
    // Builtin names are for `run`; workers must re-load a real file.
    const CliResult builtin =
        runCli({"submit", "smoke"}, dir + "/log2");
    EXPECT_EQ(builtin.exitCode, 1);
    EXPECT_NE(builtin.output.find("spec *file*"), std::string::npos)
        << builtin.output;
}

} // namespace
} // namespace lsqca::service
