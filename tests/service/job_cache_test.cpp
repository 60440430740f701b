/**
 * @file
 * The job-granularity incremental cache, end to end: canonical job
 * fingerprints (partition- and sweep-name-invariant), runSpec's splice
 * seam against an in-memory cache client, the on-disk
 * `lsqca-jobcache-v1` store, and the orchestrator behaviours the
 * tentpole promises — a resubmit after adding one grid point computes
 * exactly one job, a slice whose jobs are all cached assembles with
 * zero spawns, and an interrupted campaign never leaves an empty or
 * torn artifact behind.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/job_cache.h"
#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/spec.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/hash.h"
#include "service/cache.h"
#include "service/orchestrator.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

using api::BenchmarkRegistry;
using api::SweepSpec;

/** Direct in-process --no-timing run; returns the BENCH file bytes. */
std::string
goldenRun(const std::string &specPath, const std::string &outDir)
{
    const SweepSpec spec = SweepSpec::load(specPath);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    api::RunSpecOptions options;
    options.threads = 2;
    options.outDir = outDir;
    options.noTiming = true;
    const api::SpecRun run = api::runSpec(spec, registry, options);
    return fsutil::readFile(run.jsonPath);
}

OrchestratorOptions
baseOptions(const std::string &stateDir)
{
    OrchestratorOptions options;
    options.stateDir = stateDir;
    options.workerExe = test::kCliBin;
    options.workers = 2;
    options.noTiming = true;
    options.pollSeconds = 0.002;
    return options;
}

/**
 * A one-benchmark sweep over @p machines line-SAM grid points — the
 * "add one grid point" scenario is gridSpec(k) vs gridSpec(k + 1).
 */
std::string
gridSpec(const std::string &path, int machines)
{
    std::string doc = R"({
  "schema": "lsqca-spec-v1",
  "name": "incr",
  "name_template": "{benchmark}/{machine}",
  "axes": [
    {"axis": "benchmark", "values": [
      {"name": "adder", "bench": "adder", "params": {"width": 8}}]},
    {"axis": "machine", "values": [)";
    for (int banks = 1; banks <= machines; ++banks) {
        doc += "\n      {\"name\": \"line#" + std::to_string(banks) +
               "\", \"arch\": {\"sam\": \"line\", \"banks\": " +
               std::to_string(banks) + "}}";
        if (banks < machines)
            doc += ",";
    }
    doc += R"(]}
  ]
})";
    fsutil::writeFileAtomic(path, doc);
    return path;
}

/** In-memory JobCacheClient: entries keyed by fingerprint, as bytes. */
class MapJobCache final : public api::JobCacheClient
{
  public:
    Json fetchEntry(const std::string &fingerprint) override
    {
        ++fetches;
        const auto it = entries.find(fingerprint);
        return it == entries.end() ? Json()
                                   : Json::parse(it->second);
    }

    void storeEntry(const std::string &fingerprint, const Json &entry,
                    const Json &provenance) override
    {
        ++stores;
        EXPECT_TRUE(isFingerprint(fingerprint));
        // The provenance manifest is the key's preimage: canonical,
        // and hashing it must reproduce the fingerprint.
        EXPECT_EQ(contentFingerprint(provenance.dump(0)), fingerprint);
        entries[fingerprint] = entry.dump(0);
    }

    std::map<std::string, std::string> entries;
    int fetches = 0;
    int stores = 0;
};

TEST(JobFingerprints, AreStablePartitionAndSweepNameInvariant)
{
    const SweepSpec spec = SweepSpec::load(test::kSmokeSpec);
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const auto jobs = api::expandSpec(spec, registry);

    const auto prints = api::jobFingerprints(spec, jobs, true);
    ASSERT_EQ(prints.size(), jobs.size());
    for (const std::string &print : prints)
        EXPECT_TRUE(isFingerprint(print)) << print;
    for (std::size_t i = 0; i < prints.size(); ++i)
        for (std::size_t j = i + 1; j < prints.size(); ++j)
            EXPECT_NE(prints[i], prints[j]);

    // Deterministic across recomputation…
    EXPECT_EQ(api::jobFingerprints(spec, jobs, true), prints);
    // …independent of the sweep's name (unlike shard fingerprints,
    // the job address is the grid point, not the campaign)…
    SweepSpec renamed = spec;
    renamed.name = "entirely_different_sweep";
    EXPECT_EQ(api::jobFingerprints(renamed, jobs, true), prints);
    // …and sensitive to the flags that change entry bytes.
    EXPECT_NE(api::jobFingerprints(spec, jobs, false), prints);
}

/** The fingerprint of the job named @p name in @p spec's expansion. */
std::string
fingerprintOf(const SweepSpec &spec, const std::string &name,
              bool noTiming)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    for (const api::ExpandedJob &job : api::expandSpec(spec, registry))
        if (job.name == name)
            return api::jobFingerprint(spec, job, noTiming);
    ADD_FAILURE() << "no job named " << name << " in " << spec.name;
    return "";
}

TEST(JobFingerprints, MatchRecordedValues)
{
    // Recorded from earlier builds: a change to the manifest bytes (the
    // Json dumper, number formatting, key order) would orphan every
    // job cache on disk, so these must never move by accident.
    const SweepSpec smoke = SweepSpec::load(test::kSmokeSpec);
    EXPECT_EQ(fingerprintOf(smoke, "adder/point#1/f1", true),
              "605ba21cedbd16cf");
    EXPECT_EQ(fingerprintOf(smoke, "adder/point#1/f1", false),
              "bd05b12233db9b96");
    const SweepSpec fig14 = api::specs::fig14();
    EXPECT_EQ(fingerprintOf(fig14, "adder/conventional/f1", true),
              "baa96c4c5c2647d1");
    EXPECT_EQ(fingerprintOf(fig14, "SELECT/line#4/h1.00/f4", true),
              "67af3f7af724710b");
}

TEST(RunSpec, JobCacheSplicesByteIdenticallyAndHealsDroppedEntries)
{
    const std::string dir = test::scratchDir("splice");
    const std::string golden = goldenRun(test::kSmokeSpec, dir + "/golden");

    const SweepSpec spec = SweepSpec::load(test::kSmokeSpec);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    MapJobCache cache;
    api::RunSpecOptions options;
    options.threads = 2;
    options.noTiming = true;
    options.jobCache = &cache;

    // Cold pass: every job computed, every entry published.
    options.outDir = dir + "/cold";
    const api::SpecRun cold = api::runSpec(spec, registry, options);
    const auto total =
        static_cast<std::int64_t>(cold.expanded.size());
    EXPECT_EQ(cold.jobCacheHits, 0);
    EXPECT_EQ(cold.jobsComputed, total);
    EXPECT_EQ(cache.stores, total);
    EXPECT_EQ(static_cast<std::int64_t>(cache.entries.size()), total);
    // Attaching a cache never changes the artifact bytes.
    EXPECT_EQ(fsutil::readFile(cold.jsonPath), golden);

    // Warm pass: zero simulations, same bytes.
    options.outDir = dir + "/warm";
    const api::SpecRun warm = api::runSpec(spec, registry, options);
    EXPECT_EQ(warm.jobCacheHits, total);
    EXPECT_EQ(warm.jobsComputed, 0);
    EXPECT_TRUE(warm.jobs.empty());
    EXPECT_EQ(fsutil::readFile(warm.jsonPath), golden);

    // Drop one entry: exactly that job recomputes, the store heals.
    cache.entries.erase(cache.entries.begin());
    options.outDir = dir + "/healed";
    const api::SpecRun healed = api::runSpec(spec, registry, options);
    EXPECT_EQ(healed.jobCacheHits, total - 1);
    EXPECT_EQ(healed.jobsComputed, 1);
    EXPECT_EQ(static_cast<std::int64_t>(cache.entries.size()), total);
    EXPECT_EQ(fsutil::readFile(healed.jsonPath), golden);
}

TEST(ResultCache, JobStoreRoundTripsAndTreatsForeignBytesAsMisses)
{
    const std::string dir = test::scratchDir("jobstore");
    const ResultCache cache(dir + "/cache");
    const std::string print = "00ff00ff00ff00ff";

    EXPECT_FALSE(cache.containsJob(print));
    EXPECT_TRUE(cache.fetchJob(print).isNull());
    EXPECT_EQ(cache.jobCount(), 0u);

    Json entry = Json::object();
    entry.set("name", "adder/line#1");
    Json provenance = Json::object();
    provenance.set("schema", "lsqca-job-v1");
    cache.storeJob(print, entry, provenance);
    EXPECT_TRUE(cache.containsJob(print));
    EXPECT_EQ(cache.jobCount(), 1u);
    EXPECT_EQ(cache.fetchJob(print).dump(0), entry.dump(0));
    // The wrapper document carries the provenance manifest verbatim.
    const Json wrapper = Json::load(cache.jobPathFor(print));
    EXPECT_EQ(wrapper.at("schema").asString(), "lsqca-jobcache-v1");
    EXPECT_EQ(wrapper.at("fingerprint").asString(), print);
    EXPECT_EQ(wrapper.at("provenance").dump(0), provenance.dump(0));

    // Foreign or torn bytes in a shared directory: a miss, never an
    // error — and never served as an entry.
    const std::string alien = "11ee11ee11ee11ee";
    fsutil::writeFileAtomic(cache.jobPathFor(alien), "{\"not\": ");
    EXPECT_TRUE(cache.fetchJob(alien).isNull());
    const std::string mislabeled = "22dd22dd22dd22dd";
    fsutil::writeFileAtomic(cache.jobPathFor(mislabeled),
                            fsutil::readFile(cache.jobPathFor(print)));
    EXPECT_TRUE(cache.fetchJob(mislabeled).isNull());
    // A directory or an empty file where an entry belongs: a miss too.
    const std::string dirAtEntry = "33cc33cc33cc33cc";
    fsutil::makeDirs(cache.jobPathFor(dirAtEntry));
    EXPECT_TRUE(cache.fetchJob(dirAtEntry).isNull());
    const std::string empty = "44bb44bb44bb44bb";
    fsutil::writeFileAtomic(cache.jobPathFor(empty), "");
    EXPECT_TRUE(cache.fetchJob(empty).isNull());
    // A malformed fingerprint is the caller's error, not a miss: it
    // must never name a path outside the cache.
    EXPECT_THROW(cache.fetchJob("../x"), ConfigError);

    // A disabled cache misses and stores nothing, silently.
    const ResultCache disabled{""};
    EXPECT_TRUE(disabled.fetchJob(print).isNull());
    EXPECT_NO_THROW(disabled.storeJob(print, entry, provenance));
    EXPECT_EQ(disabled.jobCount(), 0u);
}

TEST(Orchestrator, ResubmitWithOneAddedGridPointComputesOneJob)
{
    const std::string dir = test::scratchDir("incremental");
    const std::string specA = gridSpec(dir + "/a.json", 3);
    const std::string specB = gridSpec(dir + "/b.json", 4);
    const std::string golden = goldenRun(specB, dir + "/golden");
    const std::string cacheDir = dir + "/cache";

    OrchestratorOptions first = baseOptions(dir + "/a");
    first.shards = 3;
    first.cacheDir = cacheDir;
    const CampaignReport seeded = Orchestrator(first).submit(specA);
    EXPECT_TRUE(seeded.complete);
    EXPECT_EQ(seeded.spawned, 3);
    // Cold cache: the workers published one entry per simulated job.
    EXPECT_EQ(seeded.jobCacheHits, 0);
    EXPECT_EQ(seeded.jobsComputed, 3);
    EXPECT_EQ(ResultCache(cacheDir).jobCount(), 3u);

    // The tentpole scenario: one added grid point moves every shard
    // boundary (different count, different fingerprints), yet exactly
    // ONE job is simulated; everything else splices from the cache.
    OrchestratorOptions second = baseOptions(dir + "/b");
    second.shards = 2;
    second.cacheDir = cacheDir;
    const CampaignReport resub = Orchestrator(second).submit(specB);
    EXPECT_TRUE(resub.complete);
    EXPECT_EQ(resub.jobsComputed, 1);
    EXPECT_EQ(resub.jobCacheHits, 3);
    EXPECT_EQ(resub.spawned, 1);   // only the shard holding the new job
    EXPECT_EQ(resub.cacheHits, 1); // the all-cached shard, assembled
    EXPECT_EQ(fsutil::readFile(resub.mergedPath), golden);
    // The queue records the per-task split for `lsqca status`.
    EXPECT_EQ(resub.queue.tasks[0].jobsCached, 2);
    EXPECT_EQ(resub.queue.tasks[0].jobsComputed, 0);
    EXPECT_EQ(resub.queue.tasks[1].jobsCached, 1);
    EXPECT_EQ(resub.queue.tasks[1].jobsComputed, 1);
    // …and the split survives the on-disk round trip.
    const QueueState onDisk = Orchestrator::inspect(dir + "/b");
    EXPECT_EQ(onDisk.toJson().dump(), resub.queue.toJson().dump());
    // The journal carries the same story (report/status read it).
    EXPECT_EQ(resub.metrics.at("service.job_cache.hits").asInt(), 3);
    EXPECT_EQ(resub.metrics.at("service.job_cache.computed").asInt(),
              1);
}

TEST(Orchestrator, FullyJobCachedShardsAssembleWithZeroSpawns)
{
    const std::string dir = test::scratchDir("assemble");
    const std::string spec = gridSpec(dir + "/spec.json", 3);
    const std::string golden = goldenRun(spec, dir + "/golden");
    const std::string cacheDir = dir + "/cache";

    OrchestratorOptions first = baseOptions(dir + "/a");
    first.shards = 3;
    first.cacheDir = cacheDir;
    EXPECT_TRUE(Orchestrator(first).submit(spec).complete);

    // Drop every shard-level document, keep the job entries: the fast
    // path is cold but the job layer can rebuild each slice — and does
    // so in-process, without a single worker spawn.
    for (const std::string &doc :
         fsutil::listFiles(cacheDir, "", ".json"))
        fsutil::removeFile(doc);
    EXPECT_EQ(ResultCache(cacheDir).size(), 0u);
    ASSERT_EQ(ResultCache(cacheDir).jobCount(), 3u);

    OrchestratorOptions second = baseOptions(dir + "/b");
    second.shards = 3;
    second.cacheDir = cacheDir;
    const CampaignReport report = Orchestrator(second).submit(spec);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.spawned, 0);
    EXPECT_EQ(report.cacheHits, 3);
    EXPECT_EQ(report.jobCacheHits, 3);
    EXPECT_EQ(report.jobsComputed, 0);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
    // Assembly re-warmed the shard-level fast path.
    EXPECT_EQ(ResultCache(cacheDir).size(), 3u);
}

TEST(Orchestrator, InterruptedCampaignNeverLeavesEmptyOrTornState)
{
    const std::string dir = test::scratchDir("durability");
    const std::string spec = gridSpec(dir + "/spec.json", 4);
    const std::string golden = goldenRun(spec, dir + "/golden");
    // The campaign's default cache location, shared by the resume leg.
    const std::string cacheDir = dir + "/state/cache";

    // The kill-during-save harness: two-job shards whose first
    // attempts die after one job (publishing a partial job-cache
    // entry on the way down), while the orchestrator itself "dies"
    // after three dispatches, SIGKILLing whatever workers are live.
    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 2;
    options.firstAttemptExtraArgs = {"--die-after", "1"};
    options.stopAfterDispatches = 3;
    const CampaignReport first = Orchestrator(options).submit(spec);
    EXPECT_TRUE(first.interrupted);

    // Whatever the kill interleaving, every published artifact parses
    // whole: the queue…
    const QueueState stranded = Orchestrator::inspect(dir + "/state");
    EXPECT_EQ(stranded.tasks.size(), 2u);
    // …the metrics snapshot…
    ASSERT_TRUE(fsutil::exists(dir + "/state/metrics.json"));
    EXPECT_GT(
        Json::load(dir + "/state/metrics.json").size(), 0u);
    // …and every cache entry (the dying workers' partial stores land
    // under jobs/): each is a whole lsqca-jobcache-v1 document whose
    // name, fingerprint field, and provenance hash all agree.
    const ResultCache cache(cacheDir);
    const auto jobDocs =
        fsutil::listFiles(cacheDir + "/jobs", "", ".json");
    EXPECT_GT(jobDocs.size(), 0u);
    for (const std::string &path : jobDocs) {
        const Json doc = Json::load(path);
        EXPECT_EQ(doc.at("schema").asString(), "lsqca-jobcache-v1");
        const std::string print = doc.at("fingerprint").asString();
        EXPECT_EQ(cache.jobPathFor(print), path);
        EXPECT_EQ(contentFingerprint(doc.at("provenance").dump(0)),
                  print);
        EXPECT_TRUE(doc.at("entry").isObject());
    }

    // Resume finishes the campaign from exactly that state — and the
    // partial entries mean the re-runs splice rather than resimulate.
    const CampaignReport resumed =
        Orchestrator(baseOptions(dir + "/state")).resume();
    EXPECT_TRUE(resumed.complete);
    EXPECT_GT(resumed.jobCacheHits, 0);
    EXPECT_EQ(fsutil::readFile(resumed.mergedPath), golden);
}

} // namespace
} // namespace lsqca::service
