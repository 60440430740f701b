/**
 * @file
 * Differential checks of the streamed job manifest: the bytes
 * writeJobManifest() streams (and jobFingerprint() hashes) must equal
 * jobManifest(...).dump(0), and writeJson() must equal toJson().dump(0)
 * for every options struct.
 *
 *  - Every job of every builtin spec, with and without `--full`, with
 *    noTiming both ways.
 *  - Seeded random jobs: names and params with escapes and control
 *    bytes, non-default latencies, doubles such as 0.1, 1e-300 and
 *    -0.0, sampled estimator blocks and breakdown (v2) specs.
 *
 * The default seed set keeps the discovered ctest run CI-sized; the
 * fuzz-labeled `api_job_manifest_fuzz` entry re-runs it with
 * LSQCA_FUZZ_SEEDS=64 (see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "api/spec.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"

namespace lsqca::api {
namespace {

/** Seeds per suite (LSQCA_FUZZ_SEEDS overrides 8). */
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

template <class T>
std::string
streamed(const T &x)
{
    std::string out;
    JsonWriter writer(out);
    writeJson(writer, x);
    return out;
}

std::string
streamedManifest(const SweepSpec &spec, const ExpandedJob &job,
                 bool noTiming)
{
    std::string out;
    JsonWriter writer(out);
    writeJobManifest(writer, spec, job, noTiming);
    return out;
}

TEST(StreamedManifest, EqualsTheBuiltDumpForEveryBuiltinJob)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    std::size_t checked = 0;
    for (const char *name :
         {"fig13", "fig14", "fig14_sampled", "fig15", "ablation", "smoke"}) {
        for (const bool full : {false, true}) {
            const SweepSpec spec = specs::byName(name, full);
            const std::vector<ExpandedJob> jobs = expandSpec(spec, registry);
            for (const bool noTiming : {false, true}) {
                const std::vector<std::string> prints =
                    jobFingerprints(spec, jobs, noTiming);
                ASSERT_EQ(prints.size(), jobs.size());
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    const std::string built =
                        jobManifest(spec, jobs[i], noTiming).dump(0);
                    ASSERT_EQ(streamedManifest(spec, jobs[i], noTiming),
                              built)
                        << name << (full ? " --full " : " ") << jobs[i].name;
                    ASSERT_EQ(prints[i], contentFingerprint(built));
                    ASSERT_EQ(jobFingerprint(spec, jobs[i], noTiming),
                              prints[i]);
                    ++checked;
                }
            }
        }
    }
    // fig13 + fig14 + fig14_sampled + fig15 + ablation + smoke, both
    // lengths, both timing flags: thousands of manifests.
    EXPECT_GT(checked, 8000u);
}

/** Bytes a generated string draws from: escapes, controls, UTF-8. */
std::string
randomString(Rng &rng)
{
    static const char *const kPieces[] = {
        "a", "Z", "0", " ", "/", "#", "\"", "\\", "\n", "\t", "\r", "\b",
        "\f", "\x01", "\x1f", "\x7f", "\xc3\xa9", "\xe2\x88\x91", "{", "}"};
    constexpr std::uint64_t kCount = sizeof kPieces / sizeof kPieces[0];
    std::string s;
    const std::uint64_t length = rng.below(12);
    for (std::uint64_t i = 0; i < length; ++i)
        s += kPieces[rng.below(kCount)];
    return s;
}

/** Special doubles, or a finite random bit pattern. */
double
randomDouble(Rng &rng)
{
    static const double kSpecial[] = {
        0.0, -0.0, 0.1, 1.0 / 3.0, 1e-300, 1e300, 4.9e-324, 0.5, 1.0,
        9007199254740993.0, std::numeric_limits<double>::max()};
    if (rng.chance(0.5))
        return kSpecial[rng.below(sizeof kSpecial / sizeof kSpecial[0])];
    for (;;) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            return v;
    }
}

std::int32_t
randomInt32(Rng &rng)
{
    switch (rng.below(3)) {
      case 0: return std::numeric_limits<std::int32_t>::min();
      case 1: return std::numeric_limits<std::int32_t>::max();
      default: return static_cast<std::int32_t>(rng.between(-1000, 1000));
    }
}

std::int64_t
randomInt64(Rng &rng)
{
    return rng.chance(0.5) ? static_cast<std::int64_t>(rng())
                           : rng.between(0, 100000);
}

/** A params object: nested objects, arrays and every scalar kind. */
Json
randomParams(Rng &rng, int depth)
{
    Json params = Json::object();
    const std::uint64_t n = rng.below(5);
    for (std::uint64_t i = 0; i < n; ++i) {
        Json value;
        switch (rng.below(depth > 2 ? 5 : 7)) {
          case 0: break;
          case 1: value = Json(rng.chance(0.5)); break;
          case 2: value = Json(randomInt64(rng)); break;
          case 3: value = Json(randomDouble(rng)); break;
          case 4: value = Json(randomString(rng)); break;
          case 5: value = randomParams(rng, depth + 1); break;
          default:
            value = Json::array();
            value.push(Json(randomDouble(rng)));
            value.push(randomParams(rng, depth + 1));
        }
        params.set(randomString(rng), std::move(value));
    }
    return params;
}

ArchConfig
randomArch(Rng &rng)
{
    ArchConfig cfg;
    cfg.sam = static_cast<SamKind>(rng.below(3));
    cfg.banks = randomInt32(rng);
    cfg.factories = randomInt32(rng);
    cfg.bufferCap = randomInt32(rng);
    cfg.hybridFraction = randomDouble(rng);
    cfg.localityStore = rng.chance(0.5);
    cfg.inMemoryOps = rng.chance(0.5);
    cfg.rowParallelOps = rng.chance(0.5);
    cfg.directSurgery = rng.chance(0.5);
    cfg.placement = static_cast<PlacementPolicy>(rng.below(2));
    cfg.instantMagic = rng.chance(0.5);
    cfg.warmBuffer = rng.chance(0.5);
    for (std::int32_t *lat :
         {&cfg.lat.hadamard, &cfg.lat.phase, &cfg.lat.surgery,
          &cfg.lat.move, &cfg.lat.longMove, &cfg.lat.pickDiagonal1,
          &cfg.lat.pickStraight1, &cfg.lat.pickDiagonal2,
          &cfg.lat.pickStraight2, &cfg.lat.msfPeriod,
          &cfg.lat.magicTransfer, &cfg.lat.skWait})
        if (rng.chance(0.5))
            *lat = randomInt32(rng);
    return cfg;
}

estimate::EstimatorOptions
randomEstimator(Rng &rng)
{
    estimate::EstimatorOptions options;
    if (rng.chance(0.5))
        return options; // exact: the block is omitted
    options.mode = estimate::EstimatorMode::Sampled;
    options.unitInstrs = randomInt64(rng);
    options.warmupInstrs = randomInt64(rng);
    options.period = randomInt64(rng);
    options.targetCi = randomDouble(rng);
    return options;
}

class ManifestFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ManifestFuzz, StreamedBytesEqualTheBuiltDump)
{
    Rng rng((0x9e3779b97f4a7c15ULL *
             (static_cast<std::uint64_t>(GetParam()) + 1)) ^
            0x6d616e69ULL);
    for (int round = 0; round < 64; ++round) {
        SweepSpec spec;
        spec.name = randomString(rng);
        spec.recordBreakdown = rng.chance(0.5);
        ExpandedJob job;
        job.name = randomString(rng);
        job.bench = randomString(rng);
        job.params = rng.chance(0.2) ? Json() : randomParams(rng, 0);
        job.translate.inMemoryOps = rng.chance(0.5);
        job.translate.crSlots = randomInt32(rng);
        job.options.arch = randomArch(rng);
        job.options.maxInstructions = randomInt64(rng);
        job.options.recordBreakdown = spec.recordBreakdown;
        job.options.estimator = randomEstimator(rng);
        spec.estimator = job.options.estimator;

        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " round " +
                     std::to_string(round));
        EXPECT_EQ(streamed(job.options.arch.lat),
                  toJson(job.options.arch.lat).dump(0));
        EXPECT_EQ(streamed(job.options.arch),
                  toJson(job.options.arch).dump(0));
        EXPECT_EQ(streamed(job.options.estimator),
                  toJson(job.options.estimator).dump(0));
        EXPECT_EQ(streamed(job.options), toJson(job.options).dump(0));
        EXPECT_EQ(streamed(job.translate), toJson(job.translate).dump(0));
        for (const bool noTiming : {false, true}) {
            const std::string built =
                jobManifest(spec, job, noTiming).dump(0);
            EXPECT_EQ(streamedManifest(spec, job, noTiming), built);
            EXPECT_EQ(jobFingerprint(spec, job, noTiming),
                      contentFingerprint(built));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestFuzz,
                         ::testing::Range(0, fuzzSeedCount()));

} // namespace
} // namespace lsqca::api
