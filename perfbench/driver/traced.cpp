#include "traced.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <vector>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "circuit/lowering.h"
#include "common/jsonl.h"
#include "common/metrics.h"
#include "service/cache.h"
#include "service/report.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "translate/translate.h"

namespace perfbench {

using lsqca::Json;
using lsqca::Program;
using lsqca::SamKind;
using lsqca::SimResult;
using lsqca::SweepJob;
namespace api = lsqca::api;
namespace service = lsqca::service;

namespace {

template <typename F>
auto
timed(Tracer &tracer, const char *name, F &&work)
{
    const Scope scope(tracer, name);
    return work();
}

constexpr std::array<SamKind, 3> kKinds = {SamKind::Point, SamKind::Line,
                                           SamKind::Conventional};

const char *
kindName(SamKind kind)
{
    switch (kind) {
      case SamKind::Point:
        return "point";
      case SamKind::Line:
        return "line";
      default:
        return "conventional";
    }
}

std::size_t
kindIndex(SamKind kind)
{
    return kind == SamKind::Point ? 0 : kind == SamKind::Line ? 1 : 2;
}

/** One spec of the traced cold leg, kept alive for the later passes. */
struct TracedSpec
{
    std::string name;
    std::unordered_map<std::string, std::unique_ptr<Program>> programs;
    std::vector<SweepJob> jobs;
};

/** Totals of the traced cold leg. */
struct TracedLeg
{
    std::vector<TracedSpec> specs;
    double wall = 0.0;
    double expand = 0.0;
    std::int64_t programs = 0;
    std::int64_t gates = 0;
    std::int64_t instructions = 0;
    double sweepWall = 0.0;
    double sweepBusy = 0.0;
    double sweepThreadSeconds = 0.0;
    double queueWait = 0.0;
    double docSeconds = 0.0;
    double writeSeconds = 0.0;
    std::int64_t bytes = 0;
    double unattributed = 0.0;
};

/**
 * The registry's program(), split at its module boundaries: synthesis,
 * lowering and translation each under their own span. Memoized on the
 * registry's own key, so it does exactly the work runSpec does.
 */
const Program &
resolveProgram(Tracer &tracer, const api::BenchmarkRegistry &registry,
               const api::ExpandedJob &job, TracedSpec &spec, TracedLeg &leg)
{
    const api::BenchmarkEntry &bench = registry.entry(job.bench);
    const Json canonical = bench.canonicalize(job.params);
    const std::string key =
        job.bench + "|" + canonical.dump(0) + "|" +
        (job.translate.inMemoryOps ? "mem" : "ldst") + "|cr" +
        std::to_string(job.translate.crSlots);
    auto found = spec.programs.find(key);
    if (found != spec.programs.end())
        return *found->second;
    const lsqca::Circuit circuit =
        timed(tracer, "synth", [&] { return bench.synthesize(canonical); });
    const lsqca::Circuit lowered = timed(tracer, "circuit.lower", [&] {
        return lsqca::lowerToCliffordT(circuit);
    });
    auto program = timed(tracer, "translate", [&] {
        return std::make_unique<Program>(
            lsqca::translate(lowered, job.translate));
    });
    ++leg.programs;
    leg.gates += circuit.size();
    leg.instructions += program->size();
    return *spec.programs.emplace(key, std::move(program)).first->second;
}

TracedLeg
tracedCold(const WorkloadInputs &inputs, const LegContext &context,
           Tracer &tracer)
{
    const std::string outDir = context.workDir + "/traced-bench";
    std::filesystem::create_directories(outDir);
    TracedLeg leg;
    for (const std::string &path : inputs.specs) {
        TracedSpec traced;
        lsqca::metrics::Registry instruments;
        lsqca::SweepReport report;
        std::string written;
        std::int32_t rootId = 0;
        std::int32_t resolveId = 0;
        {
            const Scope root(tracer, "pass:" +
                                         std::filesystem::path(path)
                                             .stem()
                                             .string());
            rootId = root.id();
            const api::BenchmarkRegistry registry =
                api::BenchmarkRegistry::paper();
            api::SweepSpec spec;
            std::vector<api::ExpandedJob> expanded;
            {
                const Scope scope(tracer, "api.expand");
                spec = api::SweepSpec::load(path);
                expanded = api::expandSpec(spec, registry);
            }
            traced.name = spec.name;
            {
                const Scope scope(tracer, "api.resolve");
                resolveId = scope.id();
                for (const api::ExpandedJob &job : expanded) {
                    SweepJob sweepJob;
                    sweepJob.name = job.name;
                    sweepJob.program =
                        &resolveProgram(tracer, registry, job, traced, leg);
                    sweepJob.options = job.options;
                    traced.jobs.push_back(std::move(sweepJob));
                }
            }
            report = timed(tracer, "sweep", [&] {
                return lsqca::SweepEngine({context.threads, &instruments})
                    .run(traced.jobs);
            });
            const Json doc = timed(tracer, "serialize.doc", [&] {
                return lsqca::benchReport(spec.name, traced.jobs, report,
                                          spec.recordBreakdown);
            });
            written = timed(tracer, "serialize.write", [&] {
                return lsqca::writeBenchJson(spec.name, doc, outDir);
            });
        }
        leg.wall += tracer.duration(rootId);
        // No metric reports api.resolve's own work (canonicalizing
        // params, building program keys), so it is unattributed too.
        leg.unattributed = std::max(
            leg.unattributed,
            (tracer.selfTime(rootId) + tracer.selfTime(resolveId)) /
                tracer.duration(rootId));
        leg.bytes +=
            static_cast<std::int64_t>(std::filesystem::file_size(written));

        const Json snapshot = instruments.toJson();
        leg.sweepWall += report.wallSeconds;
        leg.sweepThreadSeconds += report.wallSeconds * report.threads;
        for (const auto &[name, value] : snapshot.members())
            if (name.starts_with("sweep.worker.") &&
                name.ends_with(".busy_seconds"))
                leg.sweepBusy += value.asDouble();
        if (const Json *wait = snapshot.find("sweep.queue_wait_seconds"))
            leg.queueWait += wait->at("sum").asDouble();

        for (std::size_t i = 0; i < traced.jobs.size(); ++i) {
            const std::string key = jobKey(traced.name, traced.jobs[i].name);
            context.check->expect(
                context.reference->matches(key, report.results[i]),
                "traced result differs from reference: " + key);
        }
        leg.specs.push_back(std::move(traced));
    }
    for (const auto &[name, self] : tracer.selfTimesByName()) {
        if (name == "api.expand")
            leg.expand = self;
        else if (name == "serialize.doc")
            leg.docSeconds = self;
        else if (name == "serialize.write")
            leg.writeSeconds = self;
    }
    return leg;
}

/** Counts bank cell events committed while simulating. */
class CellCounter final : public lsqca::SimObserver
{
  public:
    void
    onBankCell(const lsqca::BankCellEvent &event) override
    {
        if (event.index >= 0)
            ++events;
    }

    std::int64_t events = 0;
};

/** Self time of every span named @p name. */
double
selfOf(const Tracer &tracer, const std::string &name)
{
    const auto self = tracer.selfTimesByName();
    const auto found = self.find(name);
    return found == self.end() ? 0.0 : found->second;
}

/** Exact and sampled sweeps of one Fig. 14 spec at N threads. */
void
estimateProbe(const std::string &specPath, const std::string &prefix,
              std::int32_t threads, Tracer &tracer, Json &metrics)
{
    const api::SweepSpec spec = api::SweepSpec::load(specPath);
    api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    std::vector<SweepJob> exact;
    for (const api::ExpandedJob &job : api::expandSpec(spec, registry)) {
        SweepJob sweepJob;
        sweepJob.name = job.name;
        sweepJob.program =
            &registry.program(job.bench, job.params, job.translate);
        sweepJob.options = job.options;
        exact.push_back(std::move(sweepJob));
    }
    std::vector<SweepJob> sampled = exact;
    const lsqca::estimate::EstimatorOptions estimator =
        api::specs::fig14Sampled().estimator;
    for (SweepJob &job : sampled)
        job.options.estimator = estimator;

    const lsqca::SweepEngine engine({threads, nullptr});
    const std::string exactName = "estimate." + prefix + "exact";
    const std::string sampledName = "estimate." + prefix + "sampled";
    std::int32_t exactId = 0;
    std::int32_t sampledId = 0;
    {
        const Scope scope(tracer, exactName);
        exactId = scope.id();
        engine.run(exact);
    }
    lsqca::SweepReport report;
    {
        const Scope scope(tracer, sampledName);
        sampledId = scope.id();
        report = engine.run(sampled);
    }
    std::int64_t detailed = 0;
    std::int64_t total = 0;
    for (const SimResult &result : report.results) {
        detailed += result.estimated ? result.detailedInstructions
                                     : result.instructionsSimulated;
        total += result.instructionsSimulated;
    }
    const double exactSeconds = tracer.duration(exactId);
    const double sampledSeconds = tracer.duration(sampledId);
    metrics.set(exactName + "_s", exactSeconds);
    metrics.set(sampledName + "_s", sampledSeconds);
    metrics.set("estimate." + prefix + "speedup",
                exactSeconds / sampledSeconds);
    metrics.set("estimate." + prefix + "detailed_share",
                static_cast<double>(detailed) / static_cast<double>(total));
}

/** service.*, journal.*, cache.* and api.fingerprint_s. */
void
campaignLayers(const WorkloadInputs &inputs, const LegContext &context,
               Tracer &tracer, CampaignPass &pass, Json &metrics)
{
    {
        const Scope scope(tracer, "service.campaign");
        pass = runCampaign(inputs, context);
    }
    const service::CampaignReport &cold = pass.cold.report;
    const service::CampaignStats coldStats =
        service::CampaignStats::fromFile(cold.journalPath);

    // Attempt wall minus the sweep wall its shard document records.
    std::vector<double> attempts;
    std::vector<double> overheads;
    for (const service::AttemptSpan &span : coldStats.spans) {
        const double wall = span.end - span.start;
        attempts.push_back(wall);
        for (const service::ShardTask &task : cold.queue.tasks) {
            if (task.index != span.shard || task.escalated)
                continue;
            const Json doc =
                Json::load(pass.cold.stateDir + "/" + task.output);
            overheads.push_back(wall - doc.at("wall_seconds").asDouble());
        }
    }
    const service::CampaignReport &resubmit = pass.resubmit.report;
    const service::CampaignReport &inc = pass.incremental.report;
    metrics.set("service.spawns",
                static_cast<std::int64_t>(cold.spawned + resubmit.spawned +
                                          inc.spawned));
    metrics.set("service.attempt_p50_s", median(attempts));
    metrics.set("service.worker_overhead_s", median(overheads));

    // The resubmit leg only reads: submit, one cache_hit per shard,
    // then the merge.
    double submitT = 0.0;
    double lastHitT = 0.0;
    double mergeT = 0.0;
    for (const Json &event :
         lsqca::jsonl::readLines(resubmit.journalPath).lines) {
        const std::string &kind = event.at("event").asString();
        const double t = event.at("t").asDouble();
        if (kind == "submit")
            submitT = t;
        else if (kind == "cache_hit")
            lastHitT = t;
        else if (kind == "merge")
            mergeT = t;
    }
    metrics.set("service.cache_pass_s", lastHitT - submitT);
    metrics.set("service.merge_s", mergeT - lastHitT);
    metrics.set("service.shard_hits",
                static_cast<std::int64_t>(resubmit.cacheHits));
    metrics.set("service.job_hits", inc.jobCacheHits);
    metrics.set("service.jobs_computed", inc.jobsComputed);
    metrics.set("service.job_hit_ratio",
                static_cast<double>(inc.jobCacheHits) /
                    static_cast<double>(inc.jobCacheHits + inc.jobsComputed));
    metrics.set("journal.events", coldStats.events);
    metrics.set("journal.bytes", static_cast<std::int64_t>(
                                     std::filesystem::file_size(
                                         cold.journalPath)));

    // Fingerprints and direct cache calls on the warm cache.
    const api::SweepSpec spec = api::SweepSpec::load(inputs.specs.back());
    const api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    const std::vector<api::ExpandedJob> jobs =
        api::expandSpec(spec, registry);
    std::vector<std::string> jobPrints;
    std::vector<std::string> shardPrints;
    {
        const Scope scope(tracer, "api.fingerprint");
        jobPrints = api::jobFingerprints(spec, jobs, false);
        shardPrints = api::shardFingerprints(spec, jobs,
                                             cold.queue.shardCount, false);
    }
    metrics.set("api.fingerprint_s", selfOf(tracer, "api.fingerprint"));

    const service::ResultCache cache(pass.cacheDir);
    std::vector<Json> entries;
    {
        const Scope scope(tracer, "cache.fetch_job");
        for (const std::string &print : jobPrints)
            entries.push_back(cache.fetchJob(print));
    }
    std::int64_t missing = 0;
    for (const Json &entry : entries)
        missing += entry.isNull() ? 1 : 0;
    context.check->tally(static_cast<std::int64_t>(entries.size()), missing,
                         "job cache probe missed");
    metrics.set("cache.fetch_job_us",
                selfOf(tracer, "cache.fetch_job") * 1e6 /
                    static_cast<double>(jobPrints.size()));

    const std::string fetched = context.workDir + "/fetched-shard.json";
    std::int64_t shardMisses = 0;
    {
        const Scope scope(tracer, "cache.fetch_shard");
        for (const std::string &print : shardPrints)
            shardMisses += cache.fetch(print, fetched) ? 0 : 1;
    }
    context.check->tally(static_cast<std::int64_t>(shardPrints.size()),
                         shardMisses, "shard cache probe missed");
    metrics.set("cache.fetch_shard_ms",
                selfOf(tracer, "cache.fetch_shard") * 1e3 /
                    static_cast<double>(shardPrints.size()));

    constexpr std::size_t kStores = 64;
    const std::size_t stores = std::min(kStores, entries.size());
    std::vector<Json> provenance;
    for (std::size_t i = 0; i < stores; ++i)
        provenance.push_back(api::jobManifest(spec, jobs[i], false));
    const service::ResultCache scratch(context.workDir + "/scratch-cache");
    {
        const Scope scope(tracer, "cache.store_job");
        for (std::size_t i = 0; i < stores; ++i)
            scratch.storeJob(jobPrints[i], entries[i], provenance[i]);
    }
    metrics.set("cache.store_job_us", selfOf(tracer, "cache.store_job") *
                                          1e6 / static_cast<double>(stores));
}

} // namespace

Json
runTraced(const Inputs &inputs, const std::string &workload,
          const LegContext &context, const Reference &campaignReference,
          Tracer &tracer)
{
    const WorkloadInputs &mine = inputs.workload(workload);
    Json metrics = Json::object();

    // Untraced cold legs bracket the traced one, so process warm-up
    // does not land on either side of trace.overhead.
    const auto untracedCold = [&](const std::string &tag) {
        LegContext legContext = context;
        legContext.workDir = context.workDir + "/untraced-" + tag;
        return sweepCold(mine.specs, legContext).wall;
    };
    const double untracedBefore = untracedCold("before");

    const TracedLeg leg = tracedCold(mine, context, tracer);
    metrics.set("api.expand_s", leg.expand);
    metrics.set("api.programs", leg.programs);
    metrics.set("synth.s", selfOf(tracer, "synth"));
    metrics.set("synth.gates", leg.gates);
    metrics.set("circuit.lower_s", selfOf(tracer, "circuit.lower"));
    metrics.set("translate.s", selfOf(tracer, "translate"));
    metrics.set("translate.instr", leg.instructions);
    metrics.set("sweep.wall_s", leg.sweepWall);
    metrics.set("sweep.busy_s", leg.sweepBusy);
    metrics.set("sweep.efficiency", leg.sweepBusy / leg.sweepThreadSeconds);
    metrics.set("sweep.queue_wait_s", leg.queueWait);
    metrics.set("serialize.doc_s", leg.docSeconds);
    metrics.set("serialize.write_s", leg.writeSeconds);
    metrics.set("serialize.bytes", leg.bytes);
    metrics.set("trace.unattributed_share", leg.unattributed);
    context.check->expect(leg.unattributed <= 0.05,
                          "named layers cover under 95% of a traced sweep");

    // One single-threaded pass over every job, timed per machine kind.
    std::array<double, 3> kindSeconds{};
    std::array<std::int64_t, 3> kindInstr{};
    std::vector<double> jobMs;
    {
        const Scope pass(tracer, "sim.single_thread");
        for (const TracedSpec &spec : leg.specs) {
            for (const SweepJob &job : spec.jobs) {
                const SamKind kind = job.options.arch.sam;
                const std::size_t k = kindIndex(kind);
                std::int32_t id = 0;
                {
                    const Scope scope(tracer,
                                      std::string("sim.") + kindName(kind));
                    id = scope.id();
                    kindInstr[k] += lsqca::simulate(*job.program, job.options)
                                        .instructionsSimulated;
                }
                const double seconds = tracer.duration(id);
                kindSeconds[k] += seconds;
                jobMs.push_back(seconds * 1e3);
            }
        }
    }
    for (const SamKind kind : kKinds) {
        const std::size_t k = kindIndex(kind);
        const std::string prefix = std::string("sim.") + kindName(kind);
        metrics.set(prefix + ".s", kindSeconds[k]);
        metrics.set(prefix + ".instr", kindInstr[k]);
        metrics.set(prefix + ".ns_per_instr",
                    kindSeconds[k] * 1e9 /
                        static_cast<double>(std::max<std::int64_t>(
                            kindInstr[k], 1)));
    }
    metrics.set("sim.job_p50_ms", median(jobMs));
    metrics.set("sim.job_max_ms",
                jobMs.empty() ? 0.0
                              : *std::max_element(jobMs.begin(), jobMs.end()));

    // Bank cell events, counted by an observer on a separate pass.
    std::array<std::int64_t, 2> cellEvents{};
    {
        const Scope pass(tracer, "arch.observe");
        for (const TracedSpec &spec : leg.specs) {
            for (const SweepJob &job : spec.jobs) {
                const SamKind kind = job.options.arch.sam;
                if (kind == SamKind::Conventional)
                    continue;
                CellCounter counter;
                lsqca::SimOptions options = job.options;
                options.observers.push_back(&counter);
                lsqca::simulate(*job.program, options);
                cellEvents[kindIndex(kind)] += counter.events;
            }
        }
    }
    for (const SamKind kind : {SamKind::Point, SamKind::Line}) {
        const std::size_t k = kindIndex(kind);
        const std::string prefix = std::string("arch.") + kindName(kind);
        metrics.set(prefix + ".cell_events", cellEvents[k]);
        metrics.set(prefix + ".ns_per_cell_event",
                    kindSeconds[k] * 1e9 /
                        static_cast<double>(
                            std::max<std::int64_t>(cellEvents[k], 1)));
    }

    LegContext serviceContext = context;
    serviceContext.reference = &campaignReference;
    serviceContext.workDir = context.workDir + "/campaign";
    CampaignPass campaign;
    campaignLayers(inputs.workload("campaign"), serviceContext, tracer,
                   campaign, metrics);

    estimateProbe(inputs.estimatePrefix, "", context.threads, tracer,
                  metrics);
    estimateProbe(inputs.estimateFull, "full.", context.threads, tracer,
                  metrics);

    const double untracedAfter = untracedCold("after");
    metrics.set("trace.overhead",
                leg.wall / (0.5 * (untracedBefore + untracedAfter)) - 1.0);
    metrics.set("failed_share",
                static_cast<double>(context.check->failed) /
                    static_cast<double>(
                        std::max<std::int64_t>(context.check->attempted, 1)));
    return metrics;
}

} // namespace perfbench
