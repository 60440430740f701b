/**
 * perfbench_driver — the native half of the repository benchmark
 * (perfbench/run.py drives it; see perfbench/README.md).
 *
 *   perfbench_driver gen --seed N --variant K --dir D
 *       write every workload's seeded spec files to D
 *   perfbench_driver reference --dir D [--threads N]
 *       regenerate the committed per-job references
 *   perfbench_driver warm --workload W --inputs D --cache C ...
 *       fill the job cache the sweep resubmit/incremental legs read
 *   perfbench_driver pass --workload W --inputs D --work DIR ...
 *       one untraced pass; prints its end-to-end figures as JSON
 *   perfbench_driver trace --workload W --inputs D --work DIR ...
 *       the traced run; prints the per-layer metrics as JSON
 *
 * Shared flags: --threads N, --worker LSQCA_EXE, --reference FILE (the
 * workload's), --campaign-reference FILE, --spans FILE (trace only).
 * Every mode prints exactly one JSON line on stdout.
 */

#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "common/error.h"
#include "common/fs.h"
#include "inputs.h"
#include "legs.h"
#include "reference.h"
#include "spans.h"
#include "traced.h"

namespace {

using lsqca::Json;
namespace api = lsqca::api;
using namespace perfbench;

using Flags = std::map<std::string, std::string>;

Flags
parseFlags(int argc, char **argv)
{
    Flags flags;
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        LSQCA_REQUIRE(key.rfind("--", 0) == 0 && i + 1 < argc,
                      "expected --flag value, got \"" + key + "\"");
        flags[key.substr(2)] = argv[++i];
    }
    return flags;
}

const std::string &
need(const Flags &flags, const std::string &key)
{
    const auto found = flags.find(key);
    LSQCA_REQUIRE(found != flags.end(), "missing --" + key);
    return found->second;
}

LegContext
legContext(const Flags &flags, const Reference &reference, Check &check)
{
    LegContext context;
    const auto threads = flags.find("threads");
    context.threads =
        threads == flags.end() ? 1 : api::parseThreadCount(threads->second);
    const auto work = flags.find("work");
    context.workDir = work == flags.end() ? "" : work->second;
    const auto worker = flags.find("worker");
    context.workerExe = worker == flags.end() ? "" : worker->second;
    context.reference = &reference;
    context.check = &check;
    return context;
}

Json
problemsJson(const Check &check)
{
    Json list = Json::array();
    for (const std::string &problem : check.problems)
        list.push(problem);
    return list;
}

/** Every job of @p spec under @p threads, as reference rows. */
void
addReferenceRows(const api::SweepSpec &spec, std::int32_t threads,
                 std::string &text, bool &first)
{
    api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    api::RunSpecOptions options;
    options.threads = threads;
    options.writeJson = false;
    const api::SpecRun run = api::runSpec(spec, registry, options);
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        text += first ? "\n    " : ",\n    ";
        first = false;
        text += Json(jobKey(spec.name, run.jobs[i].name)).dump(0) + ": " +
                referenceRow(run.report.results[i]).dump(0);
    }
}

/** A spec with every candidate incremental point appended. */
api::SweepSpec
withAllExtras(api::SweepSpec spec)
{
    for (const double fraction : kExtraFractions)
        spec = withExtraMachine(std::move(spec), fraction);
    return spec;
}

int
writeReferences(const Flags &flags)
{
    const std::string &dir = need(flags, "dir");
    const auto threads = flags.find("threads");
    const std::int32_t n =
        threads == flags.end() ? 0 : api::parseThreadCount(threads->second);
    std::filesystem::create_directories(dir);
    namespace specs = api::specs;
    const std::map<std::string, std::vector<api::SweepSpec>> workloads = {
        {"figures",
         {specs::fig13(), specs::fig15(), specs::ablation(),
          withAllExtras(specs::fig14())}},
        {"select_full", {withAllExtras(specs::fig15(true))}},
        {"campaign", {withAllExtras(specs::fig14())}},
    };
    for (const auto &[name, sweeps] : workloads) {
        std::string text =
            "{\n  \"schema\": \"perfbench-reference-v1\",\n"
            "  \"workload\": \"" +
            name +
            "\",\n"
            "  \"validated\": false,\n"
            "  \"note\": \"the simulator's own output at the commit that "
            "defined the benchmark; no hardware or paper measurement "
            "exists to validate it against\",\n"
            "  \"fields\": [\"cpi\", \"exec_beats\", \"memory_beats\", "
            "\"magic_stall_beats\", \"density\", \"instructions\"],\n"
            "  \"jobs\": {";
        bool first = true;
        for (const api::SweepSpec &spec : sweeps)
            addReferenceRows(spec, n, text, first);
        text += "\n  }\n}\n";
        lsqca::fsutil::writeFileAtomic(dir + "/" + name + ".json", text);
    }
    std::cout << Json::object().set("written", dir).dump(0) << "\n";
    return 0;
}

int
runPass(const Flags &flags, const Inputs &inputs)
{
    const std::string &workload = need(flags, "workload");
    const WorkloadInputs &mine = inputs.workload(workload);
    const Reference reference = Reference::load(need(flags, "reference"));
    Check check;
    const LegContext context = legContext(flags, reference, check);
    std::filesystem::create_directories(context.workDir);
    const std::string &cache = need(flags, "cache");

    const ColdLeg cold = sweepCold(mine.specs, context);
    // The cold leg runs first, so the peak so far is the cold leg's.
    const double peakRss = peakRssMb();
    // A single resubmit is a few milliseconds on select_full and
    // single-threaded, so it is timed once on each CPU.
    const std::vector<double> resubmits = onEveryCpu(
        [&] { return sweepCached(mine.specs, cache, 0, context); });
    // The warm cache is shared by every pass of the run: drop what the
    // incremental leg added so the next pass computes it again.
    const CacheSnapshot warm(cache);
    const double incremental = sweepCached(
        {mine.incrementalSpec}, cache, mine.incrementalJobs, context);
    warm.restore();

    Json out = Json::object();
    out.set("wall_s", cold.wall);
    out.set("setup_s", cold.setup);
    out.set("cpu_s", cold.cpu);
    out.set("sim_minstr_per_s",
            static_cast<double>(cold.instructions) / cold.wall / 1e6);
    out.set("peak_rss_mb", peakRss);
    out.set("resubmit_s", median(resubmits));
    out.set("incremental_s", incremental);
    out.set("attempted", check.attempted);
    out.set("failed", check.failed);
    out.set("problems", problemsJson(check));
    std::cout << out.dump(0) << "\n";
    return 0;
}

int
runWarm(const Flags &flags, const Inputs &inputs)
{
    const WorkloadInputs &mine = inputs.workload(need(flags, "workload"));
    const Reference reference = Reference::load(need(flags, "reference"));
    Check check;
    const LegContext context = legContext(flags, reference, check);
    const double wall =
        sweepCached(mine.specs, need(flags, "cache"), -1, context);
    Json out = Json::object();
    out.set("warm_s", wall);
    out.set("attempted", check.attempted);
    out.set("failed", check.failed);
    out.set("problems", problemsJson(check));
    std::cout << out.dump(0) << "\n";
    return 0;
}

int
runTrace(const Flags &flags, const Inputs &inputs)
{
    const std::string &workload = need(flags, "workload");
    const Reference reference = Reference::load(need(flags, "reference"));
    const Reference campaignReference =
        Reference::load(need(flags, "campaign-reference"));
    Check check;
    const LegContext context = legContext(flags, reference, check);
    std::filesystem::create_directories(context.workDir);
    Tracer tracer;
    const Json metrics =
        runTraced(inputs, workload, context, campaignReference, tracer);
    tracer.toJson().write(need(flags, "spans"), 0);

    // Self time per layer, widest first, for the log.
    std::vector<std::pair<double, std::string>> layers;
    for (const auto &[name, self] : tracer.selfTimesByName())
        layers.emplace_back(self, name);
    std::sort(layers.rbegin(), layers.rend());
    std::cerr << "self time per layer (s):\n";
    for (const auto &[self, name] : layers)
        std::cerr << "  " << name << " " << self << "\n";

    Json out = Json::object();
    out.set("metrics", metrics);
    out.set("attempted", check.attempted);
    out.set("failed", check.failed);
    out.set("problems", problemsJson(check));
    std::cout << out.dump(0) << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    LSQCA_REQUIRE(argc >= 2, "usage: perfbench_driver "
                             "gen|reference|warm|pass|trace --flag value...");
    const std::string mode = argv[1];
    const Flags flags = parseFlags(argc, argv);
    if (mode == "gen") {
        const Inputs inputs = generateInputs(
            std::stoull(need(flags, "seed")),
            static_cast<std::uint32_t>(std::stoul(need(flags, "variant"))),
            need(flags, "dir"));
        std::cout << Json::object()
                         .set("seed", static_cast<std::int64_t>(inputs.seed))
                         .set("extra_fraction", inputs.extraFraction)
                         .dump(0)
                  << "\n";
        return 0;
    }
    if (mode == "reference")
        return writeReferences(flags);
    const std::string &workload = need(flags, "workload");
    LSQCA_REQUIRE(isWorkload(workload),
                  "unknown workload \"" + workload + "\"");
    const Inputs inputs = loadInputs(need(flags, "inputs"));
    if (mode == "warm")
        return runWarm(flags, inputs);
    if (mode == "pass")
        return runPass(flags, inputs);
    if (mode == "trace")
        return runTrace(flags, inputs);
    throw lsqca::ConfigError("unknown mode \"" + mode + "\"");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "perfbench_driver: " << error.what() << "\n";
        return 1;
    }
}
