/**
 * @file
 * BenchmarkRegistry tests: all seven paper generators are registered,
 * parameters are canonicalized and validated strictly, and translation
 * is memoized (a program shared across N configs is lowered once).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "api/registry.h"
#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"

namespace lsqca::api {
namespace {

TEST(Registry, AllSevenPaperBenchmarksRegistered)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const std::vector<std::string> expected = {
        "adder", "bv",          "cat",    "ghz",
        "multiplier", "square_root", "select"};
    ASSERT_EQ(registry.entries().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(registry.entries()[i].name, expected[i]);
}

TEST(Registry, DefaultParamsReproducePaperQubitCounts)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    // Paper sizes (benchmarks.h): adder 433, bv 280, cat 260, ghz 127,
    // multiplier 400, square_root 60, SELECT(11) 143.
    const std::pair<const char *, std::int32_t> sizes[] = {
        {"adder", 433},       {"bv", 280},         {"cat", 260},
        {"ghz", 127},         {"multiplier", 400}, {"square_root", 60},
        {"select", 143},
    };
    for (const auto &[name, qubits] : sizes) {
        const Json canonical =
            registry.canonicalParams(name, Json());
        const Circuit circuit =
            registry.entry(name).synthesize(canonical);
        EXPECT_EQ(circuit.numQubits(), qubits) << name;
    }
}

TEST(Registry, CanonicalizationFillsDefaults)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    EXPECT_EQ(registry.canonicalParams("select", Json()).dump(0),
              registry
                  .canonicalParams(
                      "select", Json::parse(R"({"width": 11})"))
                  .dump(0));
    const Json canonical = registry.canonicalParams(
        "select", Json::parse(R"({"max_terms": 60})"));
    EXPECT_EQ(canonical.at("width").asInt(), 11);
    EXPECT_EQ(canonical.at("max_terms").asInt(), 60);
    EXPECT_EQ(canonical.at("control_copies").asInt(), 1);
}

TEST(Registry, RejectsUnknownBenchmarksAndParams)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    EXPECT_THROW(registry.entry("qft"), ConfigError);
    EXPECT_THROW(registry.canonicalParams(
                     "adder", Json::parse(R"({"widht": 8})")),
                 ConfigError);
    EXPECT_THROW(registry.canonicalParams(
                     "adder", Json::parse(R"({"width": 0})")),
                 ConfigError);
    EXPECT_THROW(registry.canonicalParams(
                     "select", Json::parse(R"({"width": 1})")),
                 ConfigError);
    EXPECT_THROW(registry.canonicalParams("adder", Json::parse("[1]")),
                 ConfigError);
}

TEST(Registry, MemoizesTranslation)
{
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const Json params = Json::parse(R"({"width": 8})");
    const Program &first = registry.program("adder", params);
    EXPECT_EQ(registry.cachedPrograms(), 1u);
    // Same benchmark under a different spelling of the same params:
    // same cached Program object, not a second translation.
    const Program &second = registry.program("adder", params);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(registry.cachedPrograms(), 1u);
    // Different params or translate options are distinct programs.
    registry.program("adder", Json::parse(R"({"width": 9})"));
    EXPECT_EQ(registry.cachedPrograms(), 2u);
    TranslateOptions ldst;
    ldst.inMemoryOps = false;
    const Program &third = registry.program("adder", params, ldst);
    EXPECT_EQ(registry.cachedPrograms(), 3u);
    EXPECT_NE(&first, &third);
}

TEST(Registry, ProgramMatchesDirectTranslation)
{
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const Program &cached = registry.program(
        "ghz", Json::parse(R"({"num_qubits": 24})"));
    const Program direct = translate(lowerToCliffordT(makeGhz(24)));
    EXPECT_EQ(cached.disassemble(), direct.disassemble());
}

TEST(Registry, BuildsHoldNoGrowthSlack)
{
    // The emitter reserves the counted size up front, so no program a
    // sweep keeps resident carries a vector's doubling slack: whole
    // builds and prefix builds (cut at half the whole program).
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    for (const BenchmarkEntry &entry : registry.entries()) {
        const Program &whole = registry.program(entry.name, Json());
        EXPECT_EQ(whole.instructions().capacity(),
                  whole.instructions().size())
            << entry.name;
        const Program &prefix =
            registry.program(entry.name, Json(), {},
                             std::max<std::int64_t>(1, whole.size() / 2));
        EXPECT_LT(prefix.size(), whole.size()) << entry.name;
        EXPECT_EQ(prefix.instructions().capacity(),
                  prefix.instructions().size())
            << entry.name;
    }
}

TEST(Registry, HotFractionMatchesSelectLayout)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    EXPECT_DOUBLE_EQ(
        registry.hotFraction("select", Json::parse(R"({"width": 21})")),
        selectHotFraction(21));
    // Only SELECT defines a hot set.
    EXPECT_THROW(registry.hotFraction("adder", Json()), ConfigError);
}

TEST(Registry, RejectsDuplicateRegistration)
{
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    BenchmarkEntry dup;
    dup.name = "adder";
    dup.canonicalize = [](const Json &) { return Json::object(); };
    dup.synthesize = [](const Json &) { return makeAdder(4); };
    EXPECT_THROW(registry.add(std::move(dup)), ConfigError);
}

} // namespace
} // namespace lsqca::api
