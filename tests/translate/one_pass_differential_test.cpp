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
 * The seeded suite runs 8 seeds; the fuzz-labelled ctest entry re-runs
 * every *Differential* test here with LSQCA_FUZZ_SEEDS=64 (see
 * CMakeLists.txt and the CI `ctest -L fuzz` step).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

/** Compare both builds of @p circuit under one configuration. */
void
expectOnePassMatches(const Circuit &circuit, ToffoliStyle style,
                     const TranslateOptions &options)
{
    SCOPED_TRACE(std::string(style == ToffoliStyle::Textbook7T
                                 ? "textbook-7T"
                                 : "temporary-and-4T") +
                 (options.inMemoryOps ? " mem" : " ldst") + " cr" +
                 std::to_string(options.crSlots));
    expectSamePrograms(lowerAndTranslate(circuit, options, style),
                       translate(lowerToCliffordT(circuit, style),
                                 options));
}

class RandomMacroDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomMacroDifferential, OnePassEqualsTwoPass)
{
    const auto seed = 0x9e3779b97f4a7c15ULL *
                      (static_cast<std::uint64_t>(GetParam()) + 1);
    const Circuit macro = randomMacroCircuit(seed, 200, true);
    for (const ToffoliStyle style :
         {ToffoliStyle::Textbook7T, ToffoliStyle::TemporaryAnd4T}) {
        for (const bool inMemory : {true, false}) {
            for (const std::int32_t slots : {2, 3}) {
                TranslateOptions options;
                options.inMemoryOps = inMemory;
                options.crSlots = slots;
                expectOnePassMatches(macro, style, options);
            }
        }
    }
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

} // namespace
} // namespace lsqca
