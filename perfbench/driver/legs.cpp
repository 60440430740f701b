#include "legs.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "api/registry.h"
#include "common/error.h"
#include "service/cache.h"
#include "service/orchestrator.h"
#include "sweep/sweep.h"

namespace perfbench {

using lsqca::Json;
namespace api = lsqca::api;
namespace service = lsqca::service;

double
cpuSeconds()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    const auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(self.ru_utime) + seconds(self.ru_stime) +
           seconds(children.ru_utime) + seconds(children.ru_stime);
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double>
onEveryCpu(const std::function<double()> &leg)
{
    cpu_set_t original;
    CPU_ZERO(&original);
    LSQCA_REQUIRE(sched_getaffinity(0, sizeof original, &original) == 0,
                  "sched_getaffinity failed");
    std::vector<double> results;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &original))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        LSQCA_REQUIRE(sched_setaffinity(0, sizeof one, &one) == 0,
                      "sched_setaffinity failed");
        results.push_back(leg());
    }
    LSQCA_REQUIRE(sched_setaffinity(0, sizeof original, &original) == 0,
                  "sched_setaffinity failed");
    return results;
}

namespace {

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Check every entry of a BENCH document; return their count. */
std::int64_t
checkEntries(const Json &doc, const std::string &sweep,
             const LegContext &context)
{
    const Json &entries = doc.at("entries");
    for (const Json &entry : entries.items()) {
        const std::string key = jobKey(sweep, entry.at("name").asString());
        context.check->expect(context.reference->matchesEntry(key, entry),
                              "entry differs from reference: " + key);
    }
    return static_cast<std::int64_t>(entries.size());
}

std::size_t
expandedJobCount(const std::string &specPath)
{
    const api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    return api::expandSpec(api::SweepSpec::load(specPath), registry).size();
}

} // namespace

ColdLeg
sweepCold(const std::vector<std::string> &specs, const LegContext &context)
{
    const std::string outDir = context.workDir + "/bench";
    std::filesystem::create_directories(outDir);
    ColdLeg leg;
    for (const std::string &path : specs) {
        const double cpu0 = cpuSeconds();
        const double t0 = steadySeconds();
        const api::SweepSpec spec = api::SweepSpec::load(path);
        api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
        api::RunSpecOptions options;
        options.threads = context.threads;
        options.writeJson = false;
        const api::SpecRun run = api::runSpec(spec, registry, options);
        const double t1 = steadySeconds();
        lsqca::writeBenchJson(spec.name, run.document, outDir);
        const double t2 = steadySeconds();
        leg.cpu += cpuSeconds() - cpu0;
        leg.wall += t2 - t0;
        leg.setup += (t1 - t0) - run.report.wallSeconds;

        context.check->expect(run.jobs.size() == run.expanded.size(),
                              spec.name + ": jobs missing from the sweep");
        for (std::size_t i = 0; i < run.jobs.size(); ++i) {
            const std::string key = jobKey(spec.name, run.jobs[i].name);
            context.check->expect(
                context.reference->matches(key, run.report.results[i]),
                "result differs from reference: " + key);
            leg.instructions += run.report.results[i].instructionsSimulated;
        }
    }
    return leg;
}

double
sweepCached(const std::vector<std::string> &specs,
            const std::string &cacheDir, std::int64_t expectComputed,
            const LegContext &context)
{
    const std::string outDir = context.workDir + "/bench";
    std::filesystem::create_directories(outDir);
    const service::ResultCache cache(cacheDir);
    double wall = 0.0;
    std::int64_t computed = 0;
    for (const std::string &path : specs) {
        const double t0 = steadySeconds();
        const api::SweepSpec spec = api::SweepSpec::load(path);
        api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
        service::JobCacheAdapter adapter(cache);
        api::RunSpecOptions options;
        options.threads = context.threads;
        options.writeJson = false;
        options.jobCache = &adapter;
        const api::SpecRun run = api::runSpec(spec, registry, options);
        lsqca::writeBenchJson(spec.name, run.document, outDir);
        wall += steadySeconds() - t0;

        computed += run.jobsComputed;
        const std::int64_t entries =
            checkEntries(run.document, spec.name, context);
        context.check->expect(
            entries == static_cast<std::int64_t>(run.expanded.size()),
            spec.name + ": entries missing from the cached sweep");
    }
    if (expectComputed >= 0)
        context.check->expect(computed == expectComputed,
                              "cached sweep computed " +
                                  std::to_string(computed) + " jobs, not " +
                                  std::to_string(expectComputed));
    return wall;
}

CacheSnapshot::CacheSnapshot(std::string dir) : dir_(std::move(dir))
{
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir_))
        if (entry.is_regular_file())
            files_.insert(entry.path().string());
}

void
CacheSnapshot::restore() const
{
    std::vector<std::filesystem::path> added;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir_))
        if (entry.is_regular_file() && !files_.count(entry.path().string()))
            added.push_back(entry.path());
    for (const std::filesystem::path &path : added)
        std::filesystem::remove(path);
}

CampaignLeg
submitCampaign(const std::string &name, const std::string &specPath,
               const std::string &cacheDir, std::int32_t shards,
               const LegContext &context)
{
    CampaignLeg leg;
    leg.stateDir = context.workDir + "/" + name;
    service::OrchestratorOptions options;
    options.stateDir = leg.stateDir;
    options.cacheDir = cacheDir;
    options.workers = context.threads;
    options.threadsPerWorker = 1;
    options.shards = shards;
    options.workerExe = context.workerExe;

    leg.report = service::Orchestrator(options).submit(specPath);

    Check &check = *context.check;
    check.expect(leg.report.complete, name + ": campaign did not complete");
    // Every worker attempt is an operation; a retried one failed.
    check.tally(leg.report.spawned, leg.report.retries,
                name + ": worker attempts retried");
    if (!leg.report.complete)
        return leg;
    const Json merged = Json::load(leg.report.mergedPath);
    const std::string sweep = merged.at("bench").asString();
    const std::int64_t entries = checkEntries(merged, sweep, context);
    check.expect(entries == static_cast<std::int64_t>(
                                expandedJobCount(specPath)),
                 name + ": merged document is missing entries");
    return leg;
}

CampaignPass
runCampaign(const WorkloadInputs &inputs, const LegContext &context)
{
    CampaignPass pass;
    pass.cacheDir = context.workDir + "/cache";
    const std::string &spec = inputs.specs.back();
    pass.cold = submitCampaign("cold", spec, pass.cacheDir, 0, context);
    pass.resubmit =
        submitCampaign("resubmit", spec, pass.cacheDir, 0, context);
    context.check->expect(pass.resubmit.report.spawned == 0,
                          "resubmit spawned workers");
    // A different shard count moves every shard boundary, so only the
    // job-granularity cache can serve the old jobs.
    pass.incremental = submitCampaign(
        "incremental", inputs.incrementalSpec, pass.cacheDir,
        pass.cold.report.queue.shardCount + 1, context);
    const std::int64_t computed = pass.incremental.report.jobsComputed;
    context.check->expect(computed == inputs.incrementalJobs,
                          "incremental leg computed " +
                              std::to_string(computed) + " jobs, not " +
                              std::to_string(inputs.incrementalJobs));
    return pass;
}

} // namespace perfbench
