/**
 * @file
 * runSpec builds a sweep's programs in one BenchmarkRegistry::programs()
 * batch on the sweep's threads. These tests pin what the batch must
 * keep from the serial loop it replaced: a failing build throws the
 * first failing program's error at every thread count (after every
 * build thread has joined) and is not memoized, a second run builds
 * nothing, and duplicate requests in one batch are built once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/spec.h"
#include "common/error.h"
#include "synth/benchmarks.h"
#include "sweep/sweep.h"

namespace lsqca::api {
namespace {

/**
 * The paper generators plus "broken", whose build throws a ConfigError
 * naming its "tag" parameter after sleeping "delay_ms" milliseconds.
 */
BenchmarkRegistry
registryWithBrokenEntry()
{
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    BenchmarkEntry broken;
    broken.name = "broken";
    broken.summary = "a generator whose build always throws";
    broken.canonicalize = [](const Json &params) { return params; };
    broken.synthesize = [](const Json &canonical) -> Circuit {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            canonical.at("delay_ms").asInt()));
        throw ConfigError("broken benchmark: cannot build tag " +
                          std::to_string(canonical.at("tag").asInt()));
    };
    registry.add(std::move(broken));
    return registry;
}

/**
 * Five programs, the second and fourth of which fail to build. The
 * first failing one sleeps before it throws, so on two or more threads
 * the second failure happens first.
 */
SweepSpec
specWithTwoBrokenPrograms()
{
    return SweepSpec::fromJson(Json::parse(R"({
        "schema": "lsqca-spec-v1",
        "name": "two_broken",
        "axes": [
            {"axis": "benchmark", "values": [
                {"name": "ghz", "bench": "ghz",
                 "params": {"num_qubits": 12}},
                {"name": "late", "bench": "broken",
                 "params": {"tag": 1, "delay_ms": 50}},
                {"name": "cat", "bench": "cat",
                 "params": {"num_qubits": 14}},
                {"name": "early", "bench": "broken",
                 "params": {"tag": 2, "delay_ms": 0}},
                {"name": "adder", "bench": "adder",
                 "params": {"width": 6}}]},
            {"axis": "machine", "values": [
                {"name": "point", "arch": {"sam": "point"}},
                {"name": "line", "arch": {"sam": "line"}}]}]})"));
}

/** runSpec's error message, or "" when it returns. */
std::string
runSpecError(const SweepSpec &spec, BenchmarkRegistry &registry,
             std::int32_t threads)
{
    RunSpecOptions options;
    options.threads = threads;
    options.writeJson = false;
    try {
        runSpec(spec, registry, options);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(ParallelBuild, FirstFailingProgramThrowsAtEveryThreadCount)
{
    const SweepSpec spec = specWithTwoBrokenPrograms();
    for (const std::int32_t threads : {1, 2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        BenchmarkRegistry registry = registryWithBrokenEntry();
        const std::string first = runSpecError(spec, registry, threads);
        EXPECT_EQ(first, "lsqca: config error: broken benchmark: cannot "
                         "build tag 1");
        // The three good programs stay memoized; the failed keys do
        // not, so a second call builds them again and throws again.
        EXPECT_EQ(registry.cachedPrograms(), 3u);
        EXPECT_EQ(runSpecError(spec, registry, threads), first);
        EXPECT_EQ(registry.cachedPrograms(), 3u);
    }
}

TEST(ParallelBuild, ASecondRunBuildsNothing)
{
    const SweepSpec spec = specs::byName("smoke");
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    RunSpecOptions options;
    options.threads = 4;
    options.writeJson = false;
    options.noTiming = true;
    const SpecRun first = runSpec(spec, registry, options);
    const std::size_t built = registry.cachedPrograms();
    EXPECT_EQ(built, 3u);
    const SpecRun second = runSpec(spec, registry, options);
    EXPECT_EQ(registry.cachedPrograms(), built);
    ASSERT_EQ(second.jobs.size(), first.jobs.size());
    for (std::size_t i = 0; i < first.jobs.size(); ++i)
        EXPECT_EQ(second.jobs[i].program, first.jobs[i].program)
            << first.jobs[i].name;
    EXPECT_EQ(second.document.dump(), first.document.dump());
}

TEST(ParallelBuild, DuplicateRequestsInOneBatchBuildOnce)
{
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const auto builds = std::make_shared<std::atomic<int>>(0);
    BenchmarkEntry counted;
    counted.name = "counted";
    counted.summary = "a GHZ chain that counts its builds";
    counted.canonicalize = [](const Json &params) {
        return Json::object().set(
            "num_qubits",
            params.isObject() && params.contains("num_qubits")
                ? params.at("num_qubits").asInt()
                : 8);
    };
    counted.synthesize = [builds](const Json &canonical) {
        builds->fetch_add(1);
        return makeGhz(static_cast<std::int32_t>(
            canonical.at("num_qubits").asInt()));
    };
    registry.add(std::move(counted));

    const Json eight = Json::parse(R"({"num_qubits": 8})");
    const std::vector<ProgramRequest> requests = {
        {"counted", eight, {}, 0},
        {"counted", Json(), {}, 0}, // the same program by its defaults
        {"counted", Json::parse(R"({"num_qubits": 9})"), {}, 0},
        {"counted", eight, {}, 0},
        {"counted", eight, {}, 10}, // a prefix is a program of its own
    };
    const std::vector<const Program *> programs =
        registry.programs(requests, 4);
    ASSERT_EQ(programs.size(), requests.size());
    EXPECT_EQ(builds->load(), 3);
    EXPECT_EQ(registry.cachedPrograms(), 3u);
    EXPECT_EQ(programs[1], programs[0]);
    EXPECT_EQ(programs[3], programs[0]);
    EXPECT_NE(programs[2], programs[0]);
    EXPECT_NE(programs[4], programs[0]);
    for (const Program *program : programs)
        ASSERT_NE(program, nullptr);
    // program() is the one-request batch: a hit builds nothing.
    EXPECT_EQ(&registry.program("counted", eight), programs[0]);
    EXPECT_EQ(builds->load(), 3);
}

TEST(ParallelBuild, AFailingRequestDoesNotStopTheOthers)
{
    BenchmarkRegistry registry = registryWithBrokenEntry();
    const std::vector<ProgramRequest> requests = {
        {"ghz", Json::parse(R"({"num_qubits": 12})"), {}, 0},
        {"broken", Json::parse(R"({"tag": 3, "delay_ms": 0})"), {}, 0},
        {"no_such_benchmark", Json(), {}, 0},
        {"cat", Json::parse(R"({"num_qubits": 14})"), {}, 0},
    };
    try {
        registry.programs(requests, 4);
        ADD_FAILURE() << "a batch with failing requests returned";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "lsqca: config error: broken benchmark: "
                               "cannot build tag 3");
    }
    EXPECT_EQ(registry.cachedPrograms(), 2u);
}

} // namespace
} // namespace lsqca::api
