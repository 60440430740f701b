/**
 * @file
 * lsqca — the declarative experiment driver. Turns spec files
 * (the `specs/` directory, schema lsqca-spec-v1) into sweeps without
 * writing or compiling any C++:
 *
 *   lsqca run specs/fig13.json            # expand + simulate + BENCH json
 *   lsqca run specs/smoke.json --shard 0/4 --no-timing
 *   lsqca expand specs/fig13.json         # dry-run the job list
 *   lsqca list                            # registry + builtin specs
 *   lsqca merge --out all.json BENCH_smoke.shard*.json
 *   lsqca spec fig13                      # dump a builtin spec as JSON
 *
 * Shards are contiguous slices of the expanded job vector; merged
 * shard BENCH documents are byte-identical to the unsharded run when
 * both use --no-timing. See docs/SPEC.md for the spec schema.
 *
 * The orchestration service (src/service, docs/SERVICE.md) fans those
 * shards across worker processes on this machine:
 *
 *   lsqca submit specs/fig13.json --workers 4 --no-timing
 *   lsqca status bench/service/fig13_cpi
 *   lsqca resume bench/service/fig13_cpi
 *
 * `submit` expands the spec into shard tasks, persists them in
 * queue.json (schema lsqca-queue-v1), dispatches `lsqca run --shard`
 * workers, retries crashed/timed-out/straggling shards, serves
 * already-computed shards from a content-addressed result cache, and
 * merges the shards into the same artifact a direct run writes.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "api/spec.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/jsonl.h"
#include "common/metrics.h"
#include "common/shutdown.h"
#include "common/subprocess.h"
#include "common/table.h"
#include "service/cache.h"
#include "service/journal.h"
#include "service/orchestrator.h"
#include "service/report.h"
#include "sim/collectors/bank_heatmap.h"
#include "sim/collectors/jsonl_writer.h"
#include "sim/collectors/stall_attribution.h"
#include "sim/collectors/trace_collector.h"

namespace {

using namespace lsqca;
using namespace lsqca::api;

int
usage(std::ostream &out, int code)
{
    out <<
        "usage: lsqca <command> [options]\n"
        "\n"
        "commands:\n"
        "  trace <spec>        run ONE job of a spec with telemetry\n"
        "                      collectors attached (docs/OBSERVERS.md)\n"
        "      --job N           job index in the expanded sweep (default"
        " 0)\n"
        "      --events FILE     write JSONL events here (\"-\" = stdout;\n"
        "                        default <out>/TRACE_<spec>.jsonl)\n"
        "      --out DIR         default dir for --events (default"
        " bench/out)\n"
        "      --no-cells        skip bank cell events in the JSONL\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  run <spec>          expand and simulate a sweep spec (a\n"
        "                      .json path, or a builtin name)\n"
        "      --threads N       workers that build the programs, then\n"
        "                        run the sweep (0 = hardware)\n"
        "      --out DIR         BENCH output dir (default bench/out)\n"
        "      --shard i/N       run a contiguous slice of the sweep\n"
        "      --no-timing       zero wall-clock fields (deterministic"
        " output)\n"
        "      --timeout-seconds S  abort (exit 124) past this wall"
        " budget\n"
        "      --seed-check HEX  require this shard fingerprint\n"
        "      --force-exact     ignore the spec's estimator block and\n"
        "                        run every job exactly (docs/SAMPLING.md)\n"
        "      --job-cache DIR   splice already-computed jobs from (and\n"
        "                        publish new ones to) a job-granularity\n"
        "                        result cache (docs/SERVICE.md)\n"
        "      --metrics FILE    write a sweep metrics snapshot\n"
        "                        (\"-\" = stdout; docs/METRICS.md)\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  expand <spec>       validate a spec and print its job list\n"
        "      --shard i/N       print only that slice\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  list                registered benchmarks and builtin specs\n"
        "  merge <json|dir...> merge shard BENCH documents (a directory"
        " adds its BENCH_*.json files)\n"
        "      --out FILE        write merged doc (default stdout)\n"
        "  spec <name>         print a builtin spec (fig13|fig14|"
        "fig14_sampled|fig15|ablation|smoke)\n"
        "      --full            drop steady-state prefixes\n"
        "  submit <spec.json>  run a spec as a multi-worker campaign\n"
        "      --workers K       concurrent worker processes (default"
        " 2)\n"
        "      --shards N        shard count (default min(jobs, 4K))\n"
        "      --threads N       sweep threads per worker (default 1)\n"
        "      --state DIR       campaign dir (default bench/service/"
        "<spec name>)\n"
        "      --cache DIR       result cache (default <state>/cache)\n"
        "      --no-cache        disable the result cache\n"
        "      --out DIR         merged BENCH dir (default <state>)\n"
        "      --no-timing       deterministic artifact bytes\n"
        "      --timeout-seconds S  per-attempt hard limit\n"
        "      --straggler-factor F deadline = F x median shard wall\n"
        "      --max-attempts M  spawn budget per shard (default 3)\n"
        "      --no-seed-check   skip worker fingerprint verification\n"
        "      --clock MODE      journal time base: monotonic|logical\n"
        "                        (logical stamps deterministic counters;"
        " reruns\n"
        "                        journal byte-identically)\n"
        "      --no-journal      do not write events.jsonl\n"
        "      (submit/resume catch SIGINT/SIGTERM: workers are\n"
        "       reaped, the queue saved, and the exit code is\n"
        "       128+signal; `lsqca resume` continues the campaign)\n"
        "  status <state-dir>  show a campaign's queue (with per-shard\n"
        "                      age from the journal when present)\n"
        "  resume <state-dir>  continue an interrupted campaign\n"
        "      (accepts the submit runtime flags: --workers, --threads,"
        " --cache,\n"
        "       --no-cache, --out, --timeout-seconds, --straggler-"
        "factor,\n"
        "       --max-attempts, --no-seed-check, --clock, --no-journal)\n"
        "  report <state-dir>  reconstruct a campaign's history from its\n"
        "                      events.jsonl journal alone: wall-clock\n"
        "                      breakdown, retry causes, cache hit rate,\n"
        "                      escalations, worker utilization"
        " (docs/METRICS.md)\n"
        "      --chrome-trace FILE  also export a chrome://tracing /\n"
        "                      Perfetto trace (one track per worker,\n"
        "                      one span per shard attempt)\n";
    return code;
}

[[noreturn]] void
badArg(const std::string &message)
{
    throw ConfigError(message + " (see `lsqca --help`)");
}

const char *
needValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        badArg(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

std::int32_t
parseCount(const std::string &text, const std::string &flag,
           std::int32_t min, std::int32_t max)
{
    try {
        std::size_t used = 0;
        const int value = std::stoi(text, &used);
        LSQCA_REQUIRE(used == text.size() && value >= min &&
                          value <= max,
                      "bad count");
        return value;
    } catch (const std::exception &) {
        throw ConfigError(flag + " expects an integer in [" +
                          std::to_string(min) + ", " +
                          std::to_string(max) + "], got \"" + text +
                          "\"");
    }
}

/** Load a spec file, or resolve a builtin name (fig13, smoke, ...). */
SweepSpec
loadSpecArg(const std::string &arg, bool full)
{
    if (arg.size() > 5 && arg.substr(arg.size() - 5) == ".json") {
        if (full)
            badArg("--full applies only to builtin spec names; spec "
                   "files encode their own prefixes");
        return SweepSpec::load(arg);
    }
    return specs::byName(arg, full);
}

/** JsonlWriter with an optional cell-event mute (`--no-cells`). */
class TraceJsonl : public collectors::JsonlWriter
{
  public:
    TraceJsonl(std::ostream &out, bool cells)
        : collectors::JsonlWriter(out), cells_(cells)
    {
    }

    void
    onBankCell(const BankCellEvent &event) override
    {
        if (cells_)
            collectors::JsonlWriter::onBankCell(event);
    }

  private:
    bool cells_;
};

int
cmdTrace(int argc, char **argv)
{
    std::string specArg;
    std::string eventsPath;
    std::string outDir = "bench/out";
    bool full = false;
    bool cells = true;
    std::int32_t jobIndex = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--job")
            jobIndex = parseCount(needValue(argc, argv, i), "--job", 0,
                                  (1 << 30));
        else if (arg == "--events")
            eventsPath = needValue(argc, argv, i);
        else if (arg == "--out")
            outDir = needValue(argc, argv, i);
        else if (arg == "--no-cells")
            cells = false;
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown trace option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("trace takes exactly one spec");
    }
    if (specArg.empty())
        badArg("trace needs a spec file");

    const SweepSpec spec = loadSpecArg(specArg, full);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const std::vector<ExpandedJob> jobs = expandSpec(spec, registry);
    LSQCA_REQUIRE(static_cast<std::size_t>(jobIndex) < jobs.size(),
                  "--job " + std::to_string(jobIndex) +
                      " is out of range: spec \"" + spec.name +
                      "\" expands to " + std::to_string(jobs.size()) +
                      " jobs (see `lsqca expand`)");
    const ExpandedJob &job = jobs[static_cast<std::size_t>(jobIndex)];
    // Built only as far as the job simulates: no collector reads past
    // its prefix.
    const Program &program =
        registry.program(job.bench, job.params, job.translate,
                         job.options.maxInstructions);

    // One job with the stall, bank-heat and JSONL collectors
    // attached. The JSONL stream
    // goes straight to a sibling temp file (a long trace with cell
    // events can dwarf memory) and rename() publishes it whole, so a
    // rerun stays byte-comparable and a crash never leaves a torn
    // file at the final path (jsonl::Export, shared with `lsqca
    // report --chrome-trace`).
    collectors::StallAttribution stalls;
    collectors::BankHeatmap heatmap;
    if (eventsPath.empty())
        eventsPath = outDir + "/TRACE_" + spec.name + ".jsonl";
    jsonl::Export events(eventsPath);
    TraceJsonl jsonl(events.stream(), cells);
    SimOptions options = job.options;
    options.observers = {&stalls, &heatmap, &jsonl};
    const SimResult result = simulate(program, options);
    events.publish();

    if (events.toStdout()) {
        // Keep stdout a pure JSONL stream (pipeable); the tables are
        // available by writing events to a file instead.
        std::cerr << "trace: " << jsonl.lines() << " events ("
                  << result.instructionsSimulated
                  << " instructions) -> stdout\n";
        return 0;
    }

    TextTable summary({"metric", "value"});
    summary.addRow({"job", job.name});
    summary.addRow({"machine", job.options.arch.label()});
    summary.addRow({"instructions",
                    std::to_string(result.instructionsSimulated)});
    summary.addRow({"exec [beats]", std::to_string(result.execBeats)});
    summary.addRow({"CPI", TextTable::num(result.cpi, 3)});
    summary.addRow({"memory motion [beats]",
                    std::to_string(result.memoryBeats)});
    summary.addRow({"magic stall [beats]",
                    std::to_string(result.magicStallBeats)});
    summary.addRow({"density", TextTable::num(result.density(), 3)});
    std::cout << summary.render("lsqca trace: " + spec.name + " job #" +
                                std::to_string(jobIndex));
    std::cout << "\n"
              << stalls.table().render(
                     "stall attribution (beats by component)");
    for (std::size_t b = 0; b < heatmap.banks().size(); ++b) {
        if (heatmap.banks()[b].cells.empty())
            continue;
        std::cout << "\n"
                  << heatmap.table(b).render(
                         "bank " + std::to_string(b) +
                         " heat (occupancy share, touches)");
    }
    std::cerr << "trace: " << jsonl.lines() << " events ("
              << result.instructionsSimulated << " instructions) -> "
              << eventsPath << "\n";
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string specArg;
    std::string metricsPath;
    std::string jobCacheDir;
    bool full = false;
    double sleepSeconds = 0.0;
    RunSpecOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads")
            options.threads =
                parseThreadCount(needValue(argc, argv, i));
        else if (arg == "--metrics")
            metricsPath = needValue(argc, argv, i);
        else if (arg == "--out")
            options.outDir = needValue(argc, argv, i);
        else if (arg == "--shard")
            options.shard = ShardRange::parse(needValue(argc, argv, i));
        else if (arg == "--no-timing")
            options.noTiming = true;
        else if (arg == "--timeout-seconds")
            options.timeoutSeconds =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (arg == "--seed-check")
            options.seedCheck =
                parseFingerprintArg(needValue(argc, argv, i));
        else if (arg == "--force-exact")
            options.forceExact = true;
        else if (arg == "--job-cache")
            jobCacheDir = needValue(argc, argv, i);
        else if (arg == "--die-after")
            // Test-only crash hook (see docs/SERVICE.md): simulate N
            // jobs, then exit kDieAfterExitCode without output.
            options.dieAfter = parseCount(needValue(argc, argv, i),
                                          "--die-after", 0, 1 << 30);
        else if (arg == "--test-sleep-seconds")
            // Test-only latency hook: hold the worker before it
            // simulates, so the shutdown path can catch a campaign
            // verifiably mid-flight (docs/SERVICE.md).
            sleepSeconds =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown run option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("run takes exactly one spec");
    }
    if (specArg.empty())
        badArg("run needs a spec file");

    const SweepSpec spec = loadSpecArg(specArg, full);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    metrics::Registry metrics;
    if (!metricsPath.empty())
        options.metrics = &metrics;
    // An empty dir constructs a disabled cache, so the adapter is only
    // wired in when the flag was given.
    service::ResultCache jobCacheStore(jobCacheDir);
    service::JobCacheAdapter jobCacheAdapter(jobCacheStore);
    if (jobCacheStore.enabled())
        options.jobCache = &jobCacheAdapter;
    if (sleepSeconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleepSeconds));
    const SpecRun run = runSpec(spec, registry, options);
    if (!metricsPath.empty()) {
        if (metricsPath == "-")
            std::cout << metrics.toJson().dump() << "\n";
        else
            fsutil::writeFileAtomic(metricsPath,
                                    metrics.toJson().dump(2) + "\n");
    }

    TextTable table({"name", "cpi", "exec_beats", "density"});
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const SimResult &r = run.report.results[i];
        table.addRow({run.jobs[i].name, TextTable::num(r.cpi, 3),
                      std::to_string(r.execBeats),
                      TextTable::num(r.density(), 3)});
    }
    std::cout << table.render("lsqca run: " + spec.name);
    return 0;
}

int
cmdExpand(int argc, char **argv)
{
    std::string specArg;
    bool full = false;
    ShardRange shard;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--shard")
            shard = ShardRange::parse(needValue(argc, argv, i));
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown expand option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("expand takes exactly one spec");
    }
    if (specArg.empty())
        badArg("expand needs a spec file");

    const SweepSpec spec = loadSpecArg(specArg, full);
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const std::vector<ExpandedJob> jobs = expandSpec(spec, registry);
    const auto [begin, end] = shard.bounds(jobs.size());

    TextTable table({"#", "name", "bench", "params", "machine",
                     "prefix"});
    for (std::size_t i = begin; i < end; ++i) {
        const ExpandedJob &job = jobs[i];
        table.addRow({std::to_string(i), job.name, job.bench,
                      job.params.dump(0), job.options.arch.label(),
                      std::to_string(job.options.maxInstructions)});
    }
    std::cout << table.render("lsqca expand: " + spec.name + " (" +
                              std::to_string(end - begin) + " of " +
                              std::to_string(jobs.size()) + " jobs)");
    return 0;
}

int
cmdList()
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    TextTable benches({"benchmark", "default params", "summary"});
    for (const BenchmarkEntry &entry : registry.entries())
        benches.addRow({entry.name,
                        entry.canonicalize(Json()).dump(0),
                        entry.summary});
    std::cout << benches.render("registered benchmarks") << "\n";

    TextTable builtin({"spec", "jobs", "axes"});
    for (const char *name : {"fig13", "fig14", "fig14_sampled", "fig15",
                             "ablation", "smoke"}) {
        const SweepSpec spec = specs::byName(name);
        std::string shape;
        for (const SweepAxis &axis : spec.axes) {
            if (!shape.empty())
                shape += " x ";
            shape += axis.label + "(" +
                     std::to_string(axis.values.size()) + ")";
        }
        builtin.addRow(
            {name,
             std::to_string(expandSpec(spec, registry).size()), shape});
    }
    std::cout << builtin.render("builtin specs (lsqca spec <name>)");
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    std::string outPath;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out")
            outPath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown merge option " + arg);
        else if (fsutil::isDirectory(arg)) {
            // A directory contributes its BENCH_*.json files in
            // name order (shard suffixes sort correctly up to 9
            // shards; merge re-orders by shard marker anyway).
            const std::vector<std::string> found =
                fsutil::listFiles(arg, "BENCH_", ".json");
            LSQCA_REQUIRE(!found.empty(),
                          arg + " contains no BENCH_*.json files");
            paths.insert(paths.end(), found.begin(), found.end());
        } else
            paths.push_back(arg);
    }
    if (paths.empty())
        badArg("merge needs at least one BENCH json");

    std::vector<Json> docs;
    docs.reserve(paths.size());
    for (const std::string &path : paths)
        docs.push_back(Json::load(path));
    const Json merged = mergeBenchReports(docs, paths);
    if (outPath.empty()) {
        std::cout << merged.dump();
    } else {
        merged.write(outPath);
        std::cerr << "merged " << paths.size() << " documents -> "
                  << outPath << "\n";
    }
    return 0;
}

int
cmdSpec(int argc, char **argv)
{
    std::string name;
    bool full = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown spec option " + arg);
        else if (name.empty())
            name = arg;
        else
            badArg("spec takes exactly one name");
    }
    if (name.empty())
        badArg("spec needs a builtin name");
    std::cout << specs::byName(name, full).toJson().dump();
    return 0;
}

double
parseStragglerFactor(const std::string &text)
{
    try {
        std::size_t used = 0;
        const double factor = std::stod(text, &used);
        LSQCA_REQUIRE(used == text.size() && factor >= 1.0 &&
                          factor <= 1e6,
                      "bad factor");
        return factor;
    } catch (const std::exception &) {
        throw ConfigError("--straggler-factor expects a number in "
                          "[1, 1e6], got \"" +
                          text + "\"");
    }
}

/**
 * Shared flag parsing for submit/resume: everything except the spec
 * argument and --state/--shards/--no-timing semantics, which differ.
 */
void
readServiceFlag(const std::string &arg, int argc, char **argv, int &i,
                service::OrchestratorOptions &options, bool &known)
{
    known = true;
    if (arg == "--workers")
        options.workers = parseCount(needValue(argc, argv, i),
                                     "--workers", 1, 1024);
    else if (arg == "--threads")
        options.threadsPerWorker =
            parseThreadCount(needValue(argc, argv, i));
    else if (arg == "--cache")
        options.cacheDir = needValue(argc, argv, i);
    else if (arg == "--no-cache")
        options.useCache = false;
    else if (arg == "--out")
        options.outDir = needValue(argc, argv, i);
    else if (arg == "--timeout-seconds")
        options.timeoutSeconds =
            parseTimeoutSeconds(needValue(argc, argv, i));
    else if (arg == "--straggler-factor")
        options.stragglerFactor =
            parseStragglerFactor(needValue(argc, argv, i));
    else if (arg == "--max-attempts")
        options.maxAttempts = parseCount(needValue(argc, argv, i),
                                         "--max-attempts", 1, 1000);
    else if (arg == "--no-seed-check")
        options.seedCheck = false;
    else if (arg == "--clock")
        options.clock =
            service::journalClockFromName(needValue(argc, argv, i));
    else if (arg == "--no-journal")
        options.journal = false;
    else if (arg == "--test-die-after")
        // Test hook: shard first attempts die mid-shard (exit 75)
        // after N jobs, exercising the crash/retry path.
        options.firstAttemptExtraArgs = {
            "--die-after", std::to_string(parseCount(
                               needValue(argc, argv, i),
                               "--test-die-after", 0, 1 << 30))};
    else if (arg == "--test-stop-after")
        // Test hook: simulate orchestrator death after N dispatches.
        options.stopAfterDispatches = parseCount(
            needValue(argc, argv, i), "--test-stop-after", 1, 1 << 30);
    else if (arg == "--test-worker-sleep") {
        // Test hook: every worker sleeps before simulating, keeping
        // the campaign verifiably mid-flight for signal tests.
        const std::string seconds = needValue(argc, argv, i);
        parseTimeoutSeconds(seconds);
        options.extraWorkerArgs = {"--test-sleep-seconds", seconds};
    } else
        known = false;
}

/** Render a campaign outcome; the shared exit path of submit/resume. */
int
reportCampaign(const service::CampaignReport &report,
               const std::string &stateDir)
{
    const service::QueueState &queue = report.queue;
    std::cerr << "campaign " << queue.campaign << ": "
              << queue.countWithStatus(service::TaskStatus::Done) << "/"
              << queue.tasks.size() << " shards done ("
              << report.cacheHits << " cached, " << report.spawned
              << " spawned, " << report.retries << " retries, "
              << report.stragglersKilled << " stragglers killed, "
              << report.escalations << " escalated)";
    // Job-granularity cache split, shown only when the job layer took
    // part (keeps pre-job-cache campaign output byte-identical).
    if (report.jobCacheHits + report.jobsComputed > 0)
        std::cerr << " [" << report.jobCacheHits << " job hits, "
                  << report.jobsComputed << " jobs computed]";
    if (report.complete) {
        std::cerr << " -> " << report.mergedPath << "\n";
        return 0;
    }
    std::cerr << "\n";
    if (report.interrupted) {
        if (report.shutdownSignal != 0) {
            // A SIGINT/SIGTERM drain: workers reaped, queue saved,
            // journal closed with shutdown + done. Conventional
            // fatal-signal exit code so wrappers see the cause.
            std::cerr << "campaign interrupted by signal "
                      << report.shutdownSignal
                      << "; continue with `lsqca resume " << stateDir
                      << "`\n";
            return 128 + report.shutdownSignal;
        }
        std::cerr << "campaign interrupted (test hook); continue with "
                     "`lsqca resume "
                  << stateDir << "`\n";
        return 3;
    }
    for (const service::ShardTask &task : queue.tasks)
        if (task.status == service::TaskStatus::Failed)
            std::cerr << "failed shard " << task.index << "/"
                      << queue.shardCount << " after " << task.attempts
                      << " attempts: " << task.lastError << "\n";
    return 1;
}

int
cmdSubmit(int argc, char **argv, const char *argv0)
{
    std::string specArg;
    service::OrchestratorOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool known = false;
        readServiceFlag(arg, argc, argv, i, options, known);
        if (known)
            continue;
        if (arg == "--state")
            options.stateDir = needValue(argc, argv, i);
        else if (arg == "--shards")
            options.shards = parseCount(needValue(argc, argv, i),
                                        "--shards", 1, 1 << 20);
        else if (arg == "--no-timing")
            options.noTiming = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown submit option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("submit takes exactly one spec");
    }
    if (specArg.empty())
        badArg("submit needs a spec file");
    LSQCA_REQUIRE(specArg.size() > 5 &&
                      specArg.substr(specArg.size() - 5) == ".json",
                  "submit needs a spec *file* (workers re-load it); "
                  "dump a builtin first: lsqca spec " +
                      specArg + " > " + specArg + ".json");

    if (options.stateDir.empty())
        options.stateDir =
            "bench/service/" + SweepSpec::load(specArg).name;
    options.workerExe = proc::selfExecutable(argv0);
    // Graceful shutdown: SIGINT/SIGTERM reaps workers, saves the
    // queue, journals a shutdown event, and exits 128+signal.
    options.handleShutdown = true;
    shutdown::install();
    service::Orchestrator orchestrator(options);
    return reportCampaign(orchestrator.submit(specArg),
                          options.stateDir);
}

int
cmdResume(int argc, char **argv, const char *argv0)
{
    std::string stateDir;
    service::OrchestratorOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool known = false;
        readServiceFlag(arg, argc, argv, i, options, known);
        if (known)
            continue;
        if (!arg.empty() && arg[0] == '-')
            badArg("unknown resume option " + arg);
        else if (stateDir.empty())
            stateDir = arg;
        else
            badArg("resume takes exactly one state dir");
    }
    if (stateDir.empty())
        badArg("resume needs a campaign state dir");
    options.stateDir = stateDir;
    options.workerExe = proc::selfExecutable(argv0);
    options.handleShutdown = true;
    shutdown::install();
    service::Orchestrator orchestrator(options);
    return reportCampaign(orchestrator.resume(), stateDir);
}

int
cmdStatus(int argc, char **argv)
{
    std::string stateDir;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.empty() && arg[0] == '-')
            badArg("unknown status option " + arg);
        else if (stateDir.empty())
            stateDir = arg;
        else
            badArg("status takes exactly one state dir");
    }
    if (stateDir.empty())
        badArg("status needs a campaign state dir");

    const service::QueueState queue =
        service::Orchestrator::inspect(stateDir);

    // The journal (when present) supplies liveness: the age column is
    // seconds since a running shard last produced an event — the
    // at-a-glance straggler check. Tolerates a torn tail (the
    // orchestrator may be appending right now, or died mid-line).
    bool haveJournal = false;
    service::CampaignStats stats;
    const std::string journalPath = service::Journal::pathFor(stateDir);
    if (fsutil::exists(journalPath)) {
        stats = service::CampaignStats::fromFile(journalPath);
        haveJournal = true;
    }
    const double nowWall =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const auto ageCell = [&](const service::ShardTask &task) {
        if (!haveJournal ||
            task.status != service::TaskStatus::Running)
            return std::string("-");
        const auto wall = stats.lastWallByShard.find(task.index);
        if (wall == stats.lastWallByShard.end())
            return std::string("-"); // logical clock: no wall times
        return TextTable::num(std::max(0.0, nowWall - wall->second),
                              1);
    };

    TextTable table({"shard", "mode", "status", "attempts", "cached",
                     "wall_s", "age_s", "detail"});
    for (const service::ShardTask &task : queue.tasks) {
        const std::string detail = task.lastError.empty()
                                       ? task.output
                                       : task.lastError;
        // Derived CI-escalation tasks rerun their shard exactly
        // (docs/SAMPLING.md); base tasks with no recorded mode
        // predate the estimator and are exact by definition.
        const std::string mode =
            task.escalated ? "exact (escalated)"
                           : (task.mode.empty() ? "exact" : task.mode);
        table.addRow({std::to_string(task.index) + "/" +
                          std::to_string(queue.shardCount),
                      mode, service::taskStatusName(task.status),
                      std::to_string(task.attempts),
                      task.cached ? "yes" : "no",
                      TextTable::num(task.wallSeconds, 3),
                      ageCell(task), detail});
    }
    std::cout << table.render("campaign " + queue.campaign + " (" +
                              queue.specPath + ")");
    std::cout << "pending "
              << queue.countWithStatus(service::TaskStatus::Pending)
              << ", running "
              << queue.countWithStatus(service::TaskStatus::Running)
              << ", done "
              << queue.countWithStatus(service::TaskStatus::Done)
              << ", failed "
              << queue.countWithStatus(service::TaskStatus::Failed)
              << " of " << queue.shardCount << " shards, "
              << queue.escalationCount() << " escalated\n";
    // Job-granularity split the last cache pass recorded per task.
    // All-zero (cache off, or pure shard-level traffic) prints
    // nothing, so pre-job-cache campaigns render unchanged.
    std::int64_t jobsCached = 0;
    std::int64_t jobsComputed = 0;
    for (const service::ShardTask &task : queue.tasks) {
        jobsCached += task.jobsCached;
        jobsComputed += task.jobsComputed;
    }
    if (jobsCached + jobsComputed > 0) {
        const double total =
            static_cast<double>(jobsCached + jobsComputed);
        std::cout << "job cache: " << jobsCached << " spliced, "
                  << jobsComputed << " computed (hit rate "
                  << TextTable::num(
                         100.0 * static_cast<double>(jobsCached) /
                             total,
                         1)
                  << "%)\n";
    }
    if (haveJournal && stats.stragglersKilled > 0)
        std::cout << "warning: " << stats.stragglersKilled
                  << " straggler kill"
                  << (stats.stragglersKilled == 1 ? "" : "s")
                  << " recorded in " << journalPath
                  << " (`lsqca report " << stateDir
                  << "` for causes)\n";
    return 0;
}

int
cmdReport(int argc, char **argv)
{
    std::string stateDir;
    std::string tracePath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--chrome-trace")
            tracePath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown report option " + arg);
        else if (stateDir.empty())
            stateDir = arg;
        else
            badArg("report takes exactly one state dir");
    }
    if (stateDir.empty())
        badArg("report needs a campaign state dir");

    const std::string journalPath = service::Journal::pathFor(stateDir);
    LSQCA_REQUIRE(fsutil::exists(journalPath),
                  stateDir +
                      " holds no campaign journal (events.jsonl); the "
                      "campaign predates journaling or ran with "
                      "--no-journal");
    const service::CampaignStats stats =
        service::CampaignStats::fromFile(journalPath);
    service::renderReport(stats, std::cout);
    if (!tracePath.empty()) {
        jsonl::Export trace(tracePath);
        service::writeChromeTrace(stats, trace.stream());
        trace.publish();
        if (!trace.toStdout())
            std::cerr << "chrome trace: " << stats.spans.size()
                      << " spans -> " << tracePath
                      << " (load in chrome://tracing or Perfetto)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help")
        return usage(std::cout, 0);
    try {
        if (command == "trace")
            return cmdTrace(argc, argv);
        if (command == "run")
            return cmdRun(argc, argv);
        if (command == "expand")
            return cmdExpand(argc, argv);
        if (command == "list")
            return cmdList();
        if (command == "merge")
            return cmdMerge(argc, argv);
        if (command == "spec")
            return cmdSpec(argc, argv);
        if (command == "submit")
            return cmdSubmit(argc, argv, argv[0]);
        if (command == "status")
            return cmdStatus(argc, argv);
        if (command == "report")
            return cmdReport(argc, argv);
        if (command == "resume")
            return cmdResume(argc, argv, argv[0]);
        std::cerr << "lsqca: unknown command \"" << command << "\"\n";
        return usage(std::cerr, 2);
    } catch (const ConfigError &e) {
        std::cerr << e.what() << "\n"; // already prefixed "lsqca: "
        return 1;
    } catch (const InternalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "lsqca: " << e.what() << "\n";
        return 1;
    }
}
