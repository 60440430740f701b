/**
 * @file
 * runSpec builds each program only as far as the longest prefix its
 * jobs simulate. These tests pin what that must not change: every
 * result equals a solo simulate() of the job over the whole program
 * (hybrid placement still ranks variables by whole-program reference
 * counts), the registry builds one program per benchmark key, its
 * size covers the longest prefix (a prefix-0 job forces the whole
 * program), and with a job cache attached only the jobs it misses set
 * the prefix.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/job_cache.h"
#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "api/spec.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"

namespace lsqca::api {
namespace {

/** Every simulated field a sweep reports, bit for bit. */
void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &name)
{
    SCOPED_TRACE(name);
    EXPECT_EQ(benchEntry(name, got, 0.0).dump(),
              benchEntry(name, want, 0.0).dump());
    EXPECT_EQ(got.instructionsSimulated, want.instructionsSimulated);
    EXPECT_EQ(got.countedInstructions, want.countedInstructions);
    EXPECT_EQ(got.magicConsumed, want.magicConsumed);
    EXPECT_EQ(got.detailedInstructions, want.detailedInstructions);
    EXPECT_EQ(got.ffInstructions, want.ffInstructions);
}

/** Solo simulate() of every job of @p spec over whole programs. */
std::vector<SimResult>
simulateOverWholePrograms(const SweepSpec &spec)
{
    BenchmarkRegistry whole = BenchmarkRegistry::paper();
    std::vector<SimResult> results;
    for (const ExpandedJob &job : expandSpec(spec, whole))
        results.push_back(simulate(
            whole.program(job.bench, job.params, job.translate),
            job.options));
    return results;
}

class RunSpecPrefix : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RunSpecPrefix, ResultsEqualSimulationOverWholePrograms)
{
    const SweepSpec spec = specs::byName(GetParam());
    const std::vector<SimResult> want = simulateOverWholePrograms(spec);
    for (const std::int32_t threads : {1, 4, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        BenchmarkRegistry registry = BenchmarkRegistry::paper();
        RunSpecOptions options;
        options.threads = threads;
        options.writeJson = false;
        const SpecRun run = runSpec(spec, registry, options);
        ASSERT_EQ(run.report.results.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            expectSameResult(run.report.results[i], want[i],
                             run.jobs[i].name);
        // One build per distinct (bench, params, translate), shared by
        // every job that names it, whichever thread built it.
        std::set<std::string> named;
        std::set<const Program *> used;
        for (std::size_t i = 0; i < run.jobs.size(); ++i) {
            const ExpandedJob &job = run.expanded[i];
            named.insert(job.bench + "|" + job.params.dump(0) + "|" +
                         toJson(job.translate).dump(0));
            used.insert(run.jobs[i].program);
        }
        EXPECT_EQ(registry.cachedPrograms(), named.size());
        EXPECT_EQ(used.size(), named.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSpecs, RunSpecPrefix,
    ::testing::Values("fig13", "fig14", "fig14_sampled", "ablation",
                      "smoke"),
    [](const auto &info) { return std::string(info.param); });

/**
 * The default adder (5,467 instructions) under two prefixes, on a point
 * machine and a hybrid line machine (whose placement ranks variables
 * by reference counts).
 */
SweepSpec
twoPrefixSpec(std::int64_t shortPrefix, std::int64_t longPrefix)
{
    Json shortValue =
        Json::object().set("name", "short").set("bench", "adder");
    Json longValue = shortValue;
    longValue.set("name", "long");
    shortValue.set("prefix", shortPrefix);
    if (longPrefix > 0)
        longValue.set("prefix", longPrefix);
    return SweepSpec::fromJson(
        Json::object()
            .set("schema", "lsqca-spec-v1")
            .set("name", "two_prefixes")
            .set("axes",
                 Json::array()
                     .push(Json::object()
                               .set("axis", "benchmark")
                               .set("values", Json::array()
                                                  .push(shortValue)
                                                  .push(longValue)))
                     .push(Json::parse(R"({"axis": "machine", "values": [
                         {"name": "point", "arch": {"sam": "point"}},
                         {"name": "hybrid", "arch": {"sam": "line",
                          "hybrid_fraction": 0.3}}]})"))));
}

/** The one program every job of @p run shares. */
const Program &
sharedProgram(const SpecRun &run)
{
    std::set<const Program *> programs;
    for (const SweepJob &job : run.jobs)
        programs.insert(job.program);
    EXPECT_EQ(programs.size(), 1u);
    return **programs.begin();
}

TEST(RunSpecPrefixBuild, OneProgramCoversTheLongestPrefix)
{
    BenchmarkRegistry whole = BenchmarkRegistry::paper();
    const std::int64_t fullSize =
        whole.program("adder", Json()).size();
    ASSERT_GT(fullSize, 3000);
    const SweepSpec spec = twoPrefixSpec(700, 2500);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    RunSpecOptions options;
    options.writeJson = false;
    const SpecRun run = runSpec(spec, registry, options);
    EXPECT_EQ(registry.cachedPrograms(), 1u);
    const Program &program = sharedProgram(run);
    EXPECT_GE(program.size(), 2500);
    EXPECT_LT(program.size(), fullSize);
    const std::vector<SimResult> want = simulateOverWholePrograms(spec);
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSameResult(run.report.results[i], want[i], run.jobs[i].name);
}

TEST(RunSpecPrefixBuild, APrefixZeroJobBuildsTheWholeProgram)
{
    BenchmarkRegistry whole = BenchmarkRegistry::paper();
    const Program &full =
        whole.program("adder", Json());
    const SweepSpec spec = twoPrefixSpec(700, 0);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    RunSpecOptions options;
    options.writeJson = false;
    const SpecRun run = runSpec(spec, registry, options);
    EXPECT_EQ(registry.cachedPrograms(), 1u);
    EXPECT_EQ(sharedProgram(run).size(), full.size());
}

/** In-memory JobCacheClient: entries keyed by fingerprint. */
class MapJobCache final : public JobCacheClient
{
  public:
    Json
    fetchEntry(const std::string &fingerprint) override
    {
        const auto found = entries.find(fingerprint);
        return found == entries.end() ? Json() : found->second;
    }

    void
    storeEntry(const std::string &fingerprint, const Json &entry,
               const Json &) override
    {
        entries[fingerprint] = entry;
    }

    std::map<std::string, Json> entries;
};

TEST(RunSpecPrefixBuild, OnlyJobsTheCacheMissesSetThePrefix)
{
    // A warm cache drops the short jobs' entries: the run that
    // recomputes them needs only their prefix, not the whole program
    // the cached prefix-0 jobs ran on.
    const SweepSpec spec = twoPrefixSpec(700, 0);
    MapJobCache cache;
    RunSpecOptions options;
    options.writeJson = false;
    options.noTiming = true;
    options.jobCache = &cache;
    BenchmarkRegistry warmRegistry = BenchmarkRegistry::paper();
    const SpecRun warm = runSpec(spec, warmRegistry, options);
    const std::int64_t fullSize = sharedProgram(warm).size();
    for (const ExpandedJob &job : warm.expanded)
        if (job.options.maxInstructions > 0)
            cache.entries.erase(jobFingerprint(spec, job, true));
    ASSERT_EQ(cache.entries.size(), 2u);

    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const SpecRun run = runSpec(spec, registry, options);
    EXPECT_EQ(run.jobsComputed, 2);
    EXPECT_EQ(registry.cachedPrograms(), 1u);
    const Program &program = sharedProgram(run);
    EXPECT_GE(program.size(), 700);
    EXPECT_LT(program.size(), fullSize);
    EXPECT_EQ(run.document.dump(), warm.document.dump());
}

} // namespace
} // namespace lsqca::api
