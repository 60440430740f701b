/**
 * @file
 * One-pass builds (lowerAndTranslate) against two-pass builds
 * (translate(lowerToCliffordT(...))): the same instructions in the same
 * order, the same registers, numVariables() and numValues(). Covered:
 * seeded random macro circuits in every Toffoli style and translate
 * option pairing, every registry benchmark at default parameters (as
 * the registry builds it, and with every knob flipped), a full-length
 * SELECT21, and the conditioned macros both paths must reject.
 *
 * Prefix builds (lowerAndTranslate with an instruction limit) against
 * the same two-pass builds: the stored instructions are the full
 * build's first size(), the stop is the first macro-gate boundary at
 * or after the limit, and registers, numVariables() and
 * referenceCounts() are the whole program's. Covered: the same random
 * circuits and registry benchmarks in every configuration, at limits
 * 0, 1, mid-gate, on a gate boundary, and size - 1, size and size + 1.
 *
 * The seeded suite runs 8 seeds; the fuzz-labelled ctest entry re-runs
 * every *Differential* test here with LSQCA_FUZZ_SEEDS=64 (see
 * CMakeLists.txt and the CI `ctest -L fuzz` step).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "../circuit/random_macro_circuit.h"
#include "api/registry.h"
#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** Seeds for the random-circuit suite (LSQCA_FUZZ_SEEDS overrides 8). */
int
fuzzSeedCount()
{
    if (const char *env = std::getenv("LSQCA_FUZZ_SEEDS")) {
        const int n = std::atoi(env);
        if (n >= 1 && n <= 65536)
            return n;
    }
    return 8;
}

void
expectSamePrograms(const Program &one, const Program &two)
{
    EXPECT_EQ(one.numVariables(), two.numVariables());
    EXPECT_EQ(one.numValues(), two.numValues());
    ASSERT_EQ(one.registers().size(), two.registers().size());
    for (std::size_t i = 0; i < one.registers().size(); ++i) {
        EXPECT_EQ(one.registers()[i].name, two.registers()[i].name);
        EXPECT_EQ(one.registers()[i].first, two.registers()[i].first);
        EXPECT_EQ(one.registers()[i].size, two.registers()[i].size);
    }
    ASSERT_EQ(one.size(), two.size());
    for (std::size_t i = 0; i < one.instructions().size(); ++i) {
        const Instruction &a = one.instructions()[i];
        const Instruction &b = two.instructions()[i];
        ASSERT_TRUE(a.op == b.op && a.m0 == b.m0 && a.m1 == b.m1 &&
                    a.c0 == b.c0 && a.c1 == b.c1 && a.v0 == b.v0)
            << "instruction " << i << ": one-pass " << a.str()
            << ", two-pass " << b.str();
    }
}

std::string
configName(ToffoliStyle style, const TranslateOptions &options)
{
    return std::string(style == ToffoliStyle::Textbook7T
                           ? "textbook-7T"
                           : "temporary-and-4T") +
           (options.inMemoryOps ? " mem" : " ldst") + " cr" +
           std::to_string(options.crSlots);
}

/** Every Toffoli style, in-memory/LD-ST form and 2 or 3 CR slots. */
template <typename F>
void
forEachConfig(F &&check)
{
    for (const ToffoliStyle style :
         {ToffoliStyle::Textbook7T, ToffoliStyle::TemporaryAnd4T}) {
        for (const bool inMemory : {true, false}) {
            for (const std::int32_t slots : {2, 3}) {
                TranslateOptions options;
                options.inMemoryOps = inMemory;
                options.crSlots = slots;
                check(style, options);
            }
        }
    }
}

/** Compare both builds of @p circuit under one configuration. */
void
expectOnePassMatches(const Circuit &circuit, ToffoliStyle style,
                     const TranslateOptions &options)
{
    SCOPED_TRACE(configName(style, options));
    expectSamePrograms(lowerAndTranslate(circuit, options, style),
                       translate(lowerToCliffordT(circuit, style),
                                 options));
}

/**
 * Instructions in the two-pass build of @p circuit's first k macro
 * gates, for k = 0..gates: each gate's expansion comes from a two-pass
 * build of a circuit holding that gate alone.
 */
std::vector<std::int64_t>
gateBoundaries(const Circuit &circuit, ToffoliStyle style,
               const TranslateOptions &options)
{
    std::map<std::pair<GateKind, bool>, std::int64_t> expansion;
    std::vector<std::int64_t> boundaries{0};
    for (const Gate &g : circuit.gates()) {
        const auto key = std::make_pair(g.kind, g.condBit != kNoBit);
        auto found = expansion.find(key);
        if (found == expansion.end()) {
            Circuit alone(circuit.numQubits());
            for (std::int32_t b = 0; b < circuit.numClassicalBits(); ++b)
                alone.newBit();
            alone.append(g);
            found = expansion
                        .emplace(key, translate(lowerToCliffordT(alone,
                                                                 style),
                                                options)
                                          .size())
                        .first;
        }
        boundaries.push_back(boundaries.back() + found->second);
    }
    return boundaries;
}

/**
 * Build @p circuit limited to each interesting instruction count and
 * check every build against @p full, the two-pass build of the whole
 * circuit.
 */
void
expectPrefixBuilds(const Circuit &circuit, ToffoliStyle style,
                   const TranslateOptions &options, const Program &full)
{
    SCOPED_TRACE(configName(style, options));
    const std::vector<std::int64_t> boundaries =
        gateBoundaries(circuit, style, options);
    ASSERT_EQ(boundaries.back(), full.size());
    // A boundary halfway through, and a limit one instruction into the
    // first gate after it that expands to more than one instruction.
    const std::int64_t boundary = boundaries[boundaries.size() / 2];
    std::int64_t midGate = 1;
    for (std::size_t k = boundaries.size() / 2; k + 1 < boundaries.size();
         ++k) {
        if (boundaries[k + 1] - boundaries[k] >= 2) {
            midGate = boundaries[k] + 1;
            break;
        }
    }
    const std::vector<std::pair<const char *, std::int64_t>> limits = {
        {"0", 0},
        {"1", 1},
        {"mid-gate", midGate},
        {"gate boundary", boundary},
        {"size - 1", full.size() - 1},
        {"size", full.size()},
        {"size + 1", full.size() + 1},
    };
    const std::vector<std::int64_t> fullRefs = full.referenceCounts();
    for (const auto &[what, limit] : limits) {
        SCOPED_TRACE("limit " + std::string(what) + " = " +
                     std::to_string(limit));
        const Program prefix =
            lowerAndTranslate(circuit, options, style, limit);
        // The first boundary at or after the limit; 0 = no limit.
        const std::int64_t wanted = std::min(
            limit > 0 ? limit : full.size(), full.size());
        const std::int64_t stop = *std::lower_bound(
            boundaries.begin(), boundaries.end(), wanted);
        EXPECT_GE(prefix.size(), wanted);
        ASSERT_EQ(prefix.size(), stop);
        for (std::int64_t i = 0; i < prefix.size(); ++i) {
            const Instruction &a =
                prefix.instructions()[static_cast<std::size_t>(i)];
            const Instruction &b =
                full.instructions()[static_cast<std::size_t>(i)];
            ASSERT_TRUE(a.op == b.op && a.m0 == b.m0 && a.m1 == b.m1 &&
                        a.c0 == b.c0 && a.c1 == b.c1 && a.v0 == b.v0)
                << "instruction " << i << ": prefix " << a.str()
                << ", full " << b.str();
        }
        EXPECT_EQ(prefix.numVariables(), full.numVariables());
        ASSERT_EQ(prefix.registers().size(), full.registers().size());
        for (std::size_t r = 0; r < prefix.registers().size(); ++r) {
            EXPECT_EQ(prefix.registers()[r].name, full.registers()[r].name);
            EXPECT_EQ(prefix.registers()[r].first,
                      full.registers()[r].first);
            EXPECT_EQ(prefix.registers()[r].size, full.registers()[r].size);
        }
        EXPECT_EQ(prefix.referenceCounts(), fullRefs);
        if (prefix.size() == full.size()) {
            EXPECT_EQ(prefix.numValues(), full.numValues());
        } else {
            EXPECT_LE(prefix.numValues(), full.numValues());
        }
    }
}

class RandomMacroDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomMacroDifferential, OnePassEqualsTwoPass)
{
    const auto seed = 0x9e3779b97f4a7c15ULL *
                      (static_cast<std::uint64_t>(GetParam()) + 1);
    const Circuit macro = randomMacroCircuit(seed, 200, true);
    forEachConfig([&](ToffoliStyle style, const TranslateOptions &options) {
        expectOnePassMatches(macro, style, options);
    });
}

TEST_P(RandomMacroDifferential, PrefixBuildsArePrefixes)
{
    const auto seed = 0x9e3779b97f4a7c15ULL *
                      (static_cast<std::uint64_t>(GetParam()) + 1);
    const Circuit macro = randomMacroCircuit(seed, 200, true);
    forEachConfig([&](ToffoliStyle style, const TranslateOptions &options) {
        expectPrefixBuilds(macro, style, options,
                           translate(lowerToCliffordT(macro, style),
                                     options));
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMacroDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

class RegistryDifferential : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RegistryDifferential, OnePassEqualsTwoPass)
{
    api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    const api::BenchmarkEntry &bench = registry.entry(GetParam());
    const Circuit macro = bench.synthesize(bench.canonicalize(Json()));
    // What sweeps run: the registry's memoized one-pass build.
    expectSamePrograms(registry.program(GetParam(), Json()),
                       translate(lowerToCliffordT(macro)));
    TranslateOptions flipped;
    flipped.inMemoryOps = false;
    flipped.crSlots = 3;
    expectOnePassMatches(macro, ToffoliStyle::TemporaryAnd4T, flipped);
}

TEST_P(RegistryDifferential, PrefixBuildsArePrefixes)
{
    const api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    const api::BenchmarkEntry &bench = registry.entry(GetParam());
    const Circuit macro = bench.synthesize(bench.canonicalize(Json()));
    forEachConfig([&](ToffoliStyle style, const TranslateOptions &options) {
        expectPrefixBuilds(macro, style, options,
                           translate(lowerToCliffordT(macro, style),
                                     options));
    });
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, RegistryDifferential,
    ::testing::Values("adder", "bv", "cat", "ghz", "multiplier",
                      "square_root", "select"),
    [](const auto &info) { return std::string(info.param); });

TEST(OnePassDifferential, FullLengthSelect21)
{
    SelectParams params;
    params.width = 21;
    expectOnePassMatches(makeSelect(params), ToffoliStyle::Textbook7T,
                         TranslateOptions{});
}

TEST(OnePassDifferential, BothPathsRejectConditionedMacros)
{
    for (const GateKind kind : {GateKind::CCX, GateKind::Swap,
                                GateKind::AndInit,
                                GateKind::AndUncompute}) {
        Circuit c(3);
        Gate g;
        g.kind = kind;
        g.qubits = {0, 1, kind == GateKind::Swap ? kNoQubit : 2};
        g.condBit = c.measZ(0);
        c.append(g);
        for (const ToffoliStyle style :
             {ToffoliStyle::Textbook7T, ToffoliStyle::TemporaryAnd4T}) {
            EXPECT_THROW(lowerAndTranslate(c, {}, style), ConfigError)
                << gateName(kind);
            EXPECT_THROW(translate(lowerToCliffordT(c, style)),
                         ConfigError)
                << gateName(kind);
        }
    }
}

TEST(OnePassDifferential, PrefixBuildsRejectWhatFullBuildsReject)
{
    // The unsupported gate lies past the stop: the counting pass, which
    // sees every gate, must still refuse it.
    for (const GateKind kind : {GateKind::T, GateKind::CCX, GateKind::Swap,
                                GateKind::AndInit,
                                GateKind::AndUncompute}) {
        Circuit c(3);
        Gate g;
        g.kind = kind;
        g.qubits = {0, kind == GateKind::T ? kNoQubit : 1,
                    kind == GateKind::T || kind == GateKind::Swap
                        ? kNoQubit
                        : 2};
        g.condBit = c.measZ(0);
        c.append(g);
        for (const ToffoliStyle style :
             {ToffoliStyle::Textbook7T, ToffoliStyle::TemporaryAnd4T})
            EXPECT_THROW(lowerAndTranslate(c, {}, style, 1), ConfigError)
                << gateName(kind);
    }
}

} // namespace
} // namespace lsqca
