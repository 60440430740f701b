#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "circuit/lowering.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** Random Clifford+T circuit for property sweeps. */
Circuit
randomCircuit(std::int32_t qubits, std::int64_t gates, std::uint64_t seed)
{
    Circuit c(qubits);
    Rng rng(seed);
    for (std::int64_t i = 0; i < gates; ++i) {
        const auto q0 = static_cast<QubitId>(rng.below(qubits));
        switch (rng.below(6)) {
          case 0: c.h(q0); break;
          case 1: c.s(q0); break;
          case 2: c.t(q0); break;
          case 3: {
            auto q1 = static_cast<QubitId>(rng.below(qubits));
            if (q1 == q0)
                q1 = (q1 + 1) % qubits;
            c.cx(q0, q1);
            break;
          }
          case 4: {
            auto q1 = static_cast<QubitId>(rng.below(qubits));
            if (q1 == q0)
                q1 = (q1 + 1) % qubits;
            c.cz(q0, q1);
            break;
          }
          default: c.h(q0); break;
        }
    }
    return c;
}

struct PropertyCase
{
    std::uint64_t seed;
    SamKind sam;
    std::int32_t banks;
};

class SchedulerProperties : public ::testing::TestWithParam<PropertyCase>
{
  protected:
    Program
    program() const
    {
        const auto param = GetParam();
        return translate(randomCircuit(25, 300, param.seed));
    }

    SimOptions
    options() const
    {
        SimOptions opts;
        opts.arch.sam = GetParam().sam;
        opts.arch.banks = GetParam().banks;
        return opts;
    }
};

TEST_P(SchedulerProperties, ExecTimeIsPositiveAndFinite)
{
    const SimResult r = simulate(program(), options());
    EXPECT_GT(r.execBeats, 0);
    EXPECT_LT(r.execBeats, 1'000'000);
}

TEST_P(SchedulerProperties, Deterministic)
{
    const Program p = program();
    const SimResult a = simulate(p, options());
    const SimResult b = simulate(p, options());
    EXPECT_EQ(a.execBeats, b.execBeats);
    EXPECT_EQ(a.memoryBeats, b.memoryBeats);
}

TEST_P(SchedulerProperties, MoreFactoriesNeverSlower)
{
    const Program p = program();
    SimOptions opts = options();
    std::int64_t prev = -1;
    for (std::int32_t f : {1, 2, 4}) {
        opts.arch.factories = f;
        const auto beats = simulate(p, opts).execBeats;
        if (prev >= 0) {
            EXPECT_LE(beats, prev) << "factories " << f;
        }
        prev = beats;
    }
}

TEST_P(SchedulerProperties, BiggerBufferNeverSlower)
{
    const Program p = program();
    SimOptions opts = options();
    opts.arch.bufferCap = 1;
    const auto small = simulate(p, opts).execBeats;
    opts.arch.bufferCap = 16;
    const auto big = simulate(p, opts).execBeats;
    EXPECT_LE(big, small);
}

TEST_P(SchedulerProperties, SamNeverFasterThanConventional)
{
    // The conventional baseline has unit-time access and full ILP, so
    // with identical MSF capacity it lower-bounds the SAM machines.
    const Program p = program();
    const auto conv = simulateConventional(p).execBeats;
    const auto sam = simulate(p, options()).execBeats;
    EXPECT_GE(sam, conv);
}

TEST_P(SchedulerProperties, LsqcaDensityBeatsConventional)
{
    // At realistic sizes SAM density beats the 50% baseline; tiny
    // programs with heavy banking overheads are excluded by using a
    // 100-variable program here.
    const Program p =
        translate(randomCircuit(100, 120, GetParam().seed));
    const SimResult sam = simulate(p, options());
    EXPECT_GT(sam.density(), 0.5);
}

TEST_P(SchedulerProperties, MagicConsumptionMatchesProgram)
{
    const Program p = program();
    const SimResult r = simulate(p, options());
    EXPECT_EQ(r.magicConsumed, p.magicCount());
}

TEST_P(SchedulerProperties, CountedInstructionsExcludeMemoryTraffic)
{
    const Program p = program();
    const SimResult r = simulate(p, options());
    EXPECT_EQ(r.countedInstructions, p.countedInstructions());
    EXPECT_LE(r.countedInstructions, r.instructionsSimulated);
}

TEST_P(SchedulerProperties, TruncatedPrefixNeverExceedsFullTime)
{
    const Program p = program();
    SimOptions opts = options();
    const auto full = simulate(p, opts).execBeats;
    opts.maxInstructions = p.size() / 2;
    const auto half = simulate(p, opts).execBeats;
    EXPECT_LE(half, full);
}

TEST_P(SchedulerProperties, SharedProgramPrefixesMatchFreshCopies)
{
    // Every sweep thread sizes its Machine from the same Program's
    // per-limit prefix memo. Several prefixes of one shared program,
    // simulated in shuffled order from several threads at once, must
    // equal each prefix simulated on a fresh copy with an empty memo.
    const Program shared = program();
    const std::int64_t n = shared.size();
    // Repeats and 0 (= the whole program) included on purpose.
    const std::vector<std::int64_t> limits = {
        1, 2, 17, n / 3, n / 2, n - 1, n, n + 5, 0, n / 3, 2 * n / 3, 3};
    std::vector<SimResult> expected;
    for (const std::int64_t limit : limits) {
        const Program fresh = shared;
        SimOptions opts = options();
        opts.maxInstructions = limit;
        expected.push_back(simulate(fresh, opts));
    }

    constexpr int kThreads = 4;
    std::vector<std::vector<std::size_t>> orders(kThreads);
    std::vector<std::vector<SimResult>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        orders[t].resize(limits.size());
        std::iota(orders[t].begin(), orders[t].end(), std::size_t{0});
        Rng rng(GetParam().seed * 131 + static_cast<std::uint64_t>(t));
        std::shuffle(orders[t].begin(), orders[t].end(), rng);
        threads.emplace_back([&, t] {
            for (const std::size_t i : orders[t]) {
                SimOptions opts = options();
                opts.maxInstructions = limits[i];
                got[t].push_back(simulate(shared, opts));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        for (std::size_t k = 0; k < orders[t].size(); ++k) {
            const std::size_t i = orders[t][k];
            const SimResult &want = expected[i];
            const SimResult &have = got[t][k];
            SCOPED_TRACE("thread " + std::to_string(t) + ", limit " +
                         std::to_string(limits[i]));
            EXPECT_EQ(have.instructionsSimulated,
                      want.instructionsSimulated);
            EXPECT_EQ(have.countedInstructions, want.countedInstructions);
            EXPECT_EQ(have.execBeats, want.execBeats);
            EXPECT_EQ(have.memoryBeats, want.memoryBeats);
            EXPECT_EQ(have.magicConsumed, want.magicConsumed);
            EXPECT_EQ(have.magicStallBeats, want.magicStallBeats);
        }
    }
}

TEST_P(SchedulerProperties, InMemoryOpsNeverSlower)
{
    // The Sec. V-C claim: in-memory execution removes load/store moves.
    const auto param = GetParam();
    const Circuit circ = randomCircuit(25, 300, param.seed);
    const Program in_mem = translate(circ);
    TranslateOptions topts;
    topts.inMemoryOps = false;
    const Program ld_st = translate(circ, topts);
    SimOptions opts = options();
    const auto fast = simulate(in_mem, opts).execBeats;
    opts.arch.inMemoryOps = false;
    const auto slow = simulate(ld_st, opts).execBeats;
    EXPECT_LE(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, SchedulerProperties,
    ::testing::Values(PropertyCase{1, SamKind::Point, 1},
                      PropertyCase{2, SamKind::Point, 2},
                      PropertyCase{3, SamKind::Line, 1},
                      PropertyCase{4, SamKind::Line, 2},
                      PropertyCase{5, SamKind::Line, 4},
                      PropertyCase{6, SamKind::Point, 1},
                      PropertyCase{7, SamKind::Line, 4},
                      PropertyCase{8, SamKind::Point, 2}));

TEST(SchedulerInvariants, HybridSweepDensityMonotone)
{
    const Program p = translate(randomCircuit(30, 200, 42));
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    double prev_density = 2.0;
    for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        opts.arch.hybridFraction = f;
        const SimResult r = simulate(p, opts);
        EXPECT_LE(r.density(), prev_density + 1e-12);
        prev_density = r.density();
    }
}

TEST(SchedulerInvariants, CliffordProgramsConsumeNoMagic)
{
    Circuit c(10);
    for (int i = 0; i < 9; ++i)
        c.cx(i, i + 1);
    const Program p = translate(c);
    SimOptions opts;
    opts.arch.sam = SamKind::Line;
    const SimResult r = simulate(p, opts);
    EXPECT_EQ(r.magicConsumed, 0);
    EXPECT_EQ(r.magicStallBeats, 0);
}

TEST(SchedulerInvariants, ZeroLatencyProgramFinishesInstantly)
{
    Program p(4);
    for (std::int32_t q = 0; q < 4; ++q) {
        Instruction pz;
        pz.op = Opcode::PZ_M;
        pz.m0 = q;
        p.append(pz);
    }
    SimOptions opts;
    opts.arch.sam = SamKind::Point;
    EXPECT_EQ(simulate(p, opts).execBeats, 0);
}

} // namespace
} // namespace lsqca
