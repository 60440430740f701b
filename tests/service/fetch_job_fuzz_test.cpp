/**
 * @file
 * ResultCache::fetchJob builds only a wrapper's entry and checks the
 * rest of the file without building it. These tests hold it to the
 * reader it replaced: a file is a hit exactly when Json::parse accepts
 * it and the `lsqca-jobcache-v1` wrapper checks pass, and a hit serves
 * parse()'s entry.
 *
 *  - Seeded mutations (byte edits, and snippets such as escaped
 *    duplicate keys, bad numbers and deep nesting spliced into the
 *    provenance) of the recorded wrappers in tests/golden/jobcache.
 *  - The provenance cases a reader that skips it could get wrong:
 *    malformed, nested past 1,000 levels, and duplicate keys,
 *    including keys equal only after unescaping.
 *
 * The fuzz-labeled `service_fetch_job_fuzz` entry re-runs the seeded
 * suite with LSQCA_FUZZ_SEEDS=64 (see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fs.h"
#include "common/json.h"
#include "common/rng.h"
#include "service/cache.h"
#include "service_test_util.h"

namespace lsqca::service {
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

/** What fetchJob must return for @p text: the reader it replaced. */
Json
oracleEntry(const std::string &text, const std::string &fingerprint)
{
    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const ConfigError &) {
        return Json();
    }
    if (!doc.isObject())
        return Json();
    const Json *schema = doc.find("schema");
    const Json *print = doc.find("fingerprint");
    const Json *entry = doc.find("entry");
    if (schema == nullptr || print == nullptr || entry == nullptr ||
        !schema->isString() || !print->isString() ||
        schema->asString() != "lsqca-jobcache-v1" ||
        print->asString() != fingerprint)
        return Json();
    return *entry;
}

/** Writes @p text as job @p print's file and fetches it. */
Json
fetchText(const ResultCache &cache, const std::string &print,
          const std::string &text)
{
    fsutil::replaceFile(cache.jobPathFor(print), text);
    return cache.fetchJob(print);
}

const std::string kGoldenJobs =
    LSQCA_SOURCE_DIR "/tests/golden/jobcache/jobs";

class FetchJobFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(FetchJobFuzz, HitsExactlyWhenParseAcceptsAndTheWrapperChecks)
{
    static const char *const kSnippets[] = {
        "\"a\":1,", "\"\\u0061\":1,", "\"\\u0061\":", "\"name\":0,",
        "\"\\u006eame\":0,", "[", "]", "{", "}", "\"", "\\", ",", ":",
        "1e999", "01", "-0", "1.", ".5", "\\u00", "\\ud800", "\x01",
        "null", "tru", " ", "\n"};
    constexpr std::uint64_t kSnippetCount =
        sizeof kSnippets / sizeof kSnippets[0];
    const std::vector<std::string> wrappers =
        fsutil::listFiles(kGoldenJobs, "", ".json");
    ASSERT_FALSE(wrappers.empty());
    const std::string dir = test::scratchDir("fuzz");
    const ResultCache cache(dir + "/cache");
    Rng rng((0x9e3779b97f4a7c15ULL *
             (static_cast<std::uint64_t>(GetParam()) + 1)) ^
            0x66657463ULL);
    int hits = 0;
    int misses = 0;
    for (int round = 0; round < 48; ++round) {
        const std::string path = wrappers[rng.below(wrappers.size())];
        const std::string print =
            path.substr(path.size() - 21, 16); // <16 hex>.json
        std::string text = fsutil::readFile(path);
        // Most edits land in the provenance, the member a hit checks
        // but no longer builds.
        const std::size_t provBegin = text.find("\"provenance\"");
        const std::size_t provEnd = text.find("\"entry\"");
        ASSERT_LT(provBegin, provEnd);
        const auto position = [&] {
            return rng.chance(0.75)
                       ? provBegin + rng.below(provEnd - provBegin)
                       : rng.below(text.size() + 1);
        };
        const std::uint64_t edits = rng.below(4);
        for (std::uint64_t e = 0; e < edits; ++e) {
            const std::size_t at = std::min(position(), text.size());
            switch (rng.below(5)) {
              case 0:
                if (at < text.size())
                    text.erase(at, 1);
                break;
              case 1:
                if (at < text.size())
                    text[at] = static_cast<char>(text[at] ^
                                                 (1 << rng.below(8)));
                break;
              case 2: {
                // Wrap the provenance in arrays about as deep as the
                // parser's bound (the wrapper object is one level).
                const std::size_t open = text.find("\"provenance\": {");
                const std::size_t close = text.find("},\n  \"entry\"");
                if (open == std::string::npos ||
                    close == std::string::npos || close < open)
                    break;
                const std::size_t levels = 995 + rng.below(10);
                text.insert(close + 1, std::string(levels, ']'));
                text.insert(open + 14, std::string(levels, '['));
                break;
              }
              default:
                text.insert(at, kSnippets[rng.below(kSnippetCount)]);
            }
        }
        const Json expected = oracleEntry(text, print);
        const Json fetched = fetchText(cache, print, text);
        EXPECT_EQ(fetched, expected)
            << "seed " << GetParam() << " round " << round << " ("
            << print << ")\n"
            << text.substr(0, 600);
        (fetched.isNull() ? misses : hits) += 1;
    }
    // Both outcomes occur, so neither half is checked vacuously.
    EXPECT_GT(hits, 0);
    EXPECT_GT(misses, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FetchJobFuzz,
                         ::testing::Range(0, fuzzSeedCount()));

TEST(FetchJob, ProvenanceThatParseRejectsIsAMiss)
{
    const std::string dir = test::scratchDir("provenance");
    const ResultCache cache(dir + "/cache");
    const std::string print = "0123456789abcdef";
    const auto wrapper = [&](const std::string &provenance) {
        return "{\"schema\": \"lsqca-jobcache-v1\", \"fingerprint\": \"" +
               print + "\", \"provenance\": " + provenance +
               ", \"entry\": {\"cpi\": 2.5}}";
    };
    const Json entry = Json::parse("{\"cpi\": 2.5}");
    // The wrapper object is one level, so the provenance may nest 999.
    EXPECT_EQ(fetchText(cache, print,
                        wrapper(std::string(999, '[') +
                                std::string(999, ']'))),
              entry);
    EXPECT_EQ(fetchText(cache, print, wrapper(R"({"a": 1, "\u0062": 2})")),
              entry);
    for (const std::string &bad :
         {std::string(1000, '[') + std::string(1000, ']'),
          std::string(R"({"a": 1, "a": 2})"),
          std::string(R"({"a": 1, "\u0061": 2})"),
          std::string(R"({"x": [{"name": 1, "\u006eame": 2}]})"),
          std::string(R"({"a": 01})"), std::string(R"({"a": 1e999})"),
          std::string(R"({"a": "\q"})"), std::string(R"({"a": "\u12"})"),
          std::string("{\"a\": \"\x01\"}"), std::string(R"({"a": 1,})"),
          std::string(R"({"a" 1})"), std::string("{\"a\": [1, 2}")}) {
        EXPECT_TRUE(oracleEntry(wrapper(bad), print).isNull()) << bad;
        EXPECT_TRUE(fetchText(cache, print, wrapper(bad)).isNull())
            << bad.substr(0, 40);
    }
    // A duplicate across the kept and skipped top-level members.
    std::string dup = wrapper("{}");
    dup.insert(dup.size() - 1, ", \"\\u0065ntry\": 1");
    EXPECT_TRUE(fetchText(cache, print, dup).isNull());
}

} // namespace
} // namespace lsqca::service
