/**
 * @file
 * Seeded, structure-aware fuzzing of the Json parser and dumper. Every
 * spec, BENCH document and job-cache entry goes through them, so each
 * seed checks three properties:
 *
 *  - Round trip: random documents (bounded depth and size; keys and
 *    strings with escapes, control bytes and UTF-8; the int64
 *    extremes; finite doubles from random bit patterns) re-parse from
 *    their dump to the same bytes, at indent 0 and at indent 2.
 *  - No crash: byte mutations of valid dumps (delete, insert, bit
 *    flip, truncate) either parse, and then round-trip themselves, or
 *    throw a ConfigError.
 *  - Position: that ConfigError names a line:column inside the text
 *    (at most one past its last byte).
 *  - One grammar: Json::parseMembers, which builds only some top-level
 *    members and checks the rest, throws exactly when parse() does,
 *    with the same message, and otherwise returns parse()'s kept
 *    members.
 *
 * The default seed set keeps the discovered ctest run CI-sized; the
 * fuzz-labeled `common_json_fuzz` entry re-runs it with
 * LSQCA_FUZZ_SEEDS=64 (see CMakeLists.txt and the CI `ctest -L fuzz`
 * step).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"

namespace lsqca {
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

constexpr int kMaxDepth = 5;
constexpr int kMaxNodes = 120;

/** Bytes a generated string draws from: escapes, controls, UTF-8. */
std::string
randomString(Rng &rng)
{
    static const char *const kPieces[] = {
        "a",  "Z",  "0",  " ",  "_",  "/",   "\"",  "\\", "\n",
        "\t", "\r", "\b", "\f", "\x01", "\x1f", "\x7f", "\xc3\xa9",
        "\xe2\x88\x91", "\xf0\x9f\x98\x80", "\xff", "#", "{", "]", ":"};
    constexpr std::uint64_t kCount = sizeof kPieces / sizeof kPieces[0];
    std::string s;
    const std::uint64_t length = rng.below(10);
    for (std::uint64_t i = 0; i < length; ++i)
        s += kPieces[rng.below(kCount)];
    return s;
}

/** A finite double: special values, or a random bit pattern. */
double
randomDouble(Rng &rng)
{
    static const double kSpecial[] = {
        0.0,     -0.0,   0.1,    1.0 / 3.0, 5.0,    -2.5,
        1e-300,  1e300,  4.9e-324, std::numeric_limits<double>::max(),
        9007199254740993.0, -9223372036854775808.0, 1e16, 1e17};
    if (rng.chance(0.25))
        return kSpecial[rng.below(sizeof kSpecial / sizeof kSpecial[0])];
    for (;;) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            return v;
    }
}

std::int64_t
randomInt(Rng &rng)
{
    switch (rng.below(4)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return rng.between(-1000, 1000);
      default: return static_cast<std::int64_t>(rng());
    }
}

Json
randomValue(Rng &rng, int depth, int &nodes)
{
    ++nodes;
    const bool leaf = depth >= kMaxDepth || nodes >= kMaxNodes;
    switch (rng.below(leaf ? 5 : 7)) {
      case 0: return Json();
      case 1: return Json(rng.chance(0.5));
      case 2: return Json(randomInt(rng));
      case 3: return Json(randomDouble(rng));
      case 4: return Json(randomString(rng));
      case 5: {
        Json obj = Json::object();
        const std::uint64_t n = rng.below(6);
        for (std::uint64_t i = 0; i < n; ++i)
            obj.set(randomString(rng), randomValue(rng, depth + 1, nodes));
        return obj;
      }
      default: {
        Json arr = Json::array();
        const std::uint64_t n = rng.below(6);
        for (std::uint64_t i = 0; i < n; ++i)
            arr.push(randomValue(rng, depth + 1, nodes));
        return arr;
      }
    }
}

Json
randomDocument(Rng &rng)
{
    int nodes = 0;
    return randomValue(rng, 0, nodes);
}

/** Distinct, well-mixed 64-bit seed for fuzz round @p index. */
std::uint64_t
fuzzSeed(int index, std::uint64_t salt)
{
    return (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1)) ^
           salt;
}

/**
 * Check that @p what carries "at L:C" naming a position inside @p text
 * or one past its end.
 */
void
expectPositionInside(const std::string &what, const std::string &text)
{
    const std::size_t at = what.find(" at ");
    ASSERT_NE(at, std::string::npos) << what;
    char *rest = nullptr;
    const long line = std::strtol(what.c_str() + at + 4, &rest, 10);
    ASSERT_EQ(*rest, ':') << what;
    const long col = std::strtol(rest + 1, nullptr, 10);
    ASSERT_GE(line, 1) << what;
    ASSERT_GE(col, 1) << what;
    std::size_t lineStart = 0;
    for (long l = 1; l < line; ++l) {
        const std::size_t nl = text.find('\n', lineStart);
        ASSERT_NE(nl, std::string::npos) << what << " (line past the text)";
        lineStart = nl + 1;
    }
    std::size_t lineEnd = text.find('\n', lineStart);
    if (lineEnd == std::string::npos)
        lineEnd = text.size();
    EXPECT_LE(lineStart + static_cast<std::size_t>(col - 1), lineEnd)
        << what << " (column past the line)";
}

class JsonFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(JsonFuzz, DumpsRoundTripByteForByte)
{
    Rng rng(fuzzSeed(GetParam(), 0x6a736f6e));
    for (int doc = 0; doc < 24; ++doc) {
        const Json value = randomDocument(rng);
        for (const int indent : {0, 2}) {
            const std::string text = value.dump(indent);
            Json reparsed;
            try {
                reparsed = Json::parse(text);
            } catch (const ConfigError &e) {
                FAIL() << "seed " << GetParam() << " doc " << doc << ": "
                       << e.what() << "\n" << text;
            }
            EXPECT_EQ(reparsed.dump(indent), text)
                << "seed " << GetParam() << " doc " << doc;
            EXPECT_EQ(reparsed.dump(2 - indent), value.dump(2 - indent))
                << "seed " << GetParam() << " doc " << doc;
            // parse(dump(x)) == x for the values the parser produces.
            EXPECT_EQ(Json::parse(reparsed.dump(indent)), reparsed)
                << "seed " << GetParam() << " doc " << doc;
        }
    }
}

TEST_P(JsonFuzz, MutatedDumpsParseOrThrowConfigErrorWithPosition)
{
    static const char kInsert[] = "{}[]\":,\\-+.eE0123456789 \n\tntfu\x01\xc3";
    Rng rng(fuzzSeed(GetParam(), 0x6d757461));
    for (int round = 0; round < 48; ++round) {
        std::string text = randomDocument(rng).dump(rng.chance(0.5) ? 2 : 0);
        const std::uint64_t edits = 1 + rng.below(4);
        for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t at = rng.below(text.size());
            switch (rng.below(4)) {
              case 0: text.erase(at, 1); break;
              case 1:
                text.insert(at, 1,
                            kInsert[rng.below(sizeof kInsert - 1)]);
                break;
              case 2:
                text[at] = static_cast<char>(text[at] ^
                                             (1 << rng.below(8)));
                break;
              default: text.resize(at); break;
            }
        }
        try {
            const Json parsed = Json::parse(text);
            // Whatever parses must round-trip like any parsed value.
            for (const int indent : {0, 2}) {
                const std::string dumped = parsed.dump(indent);
                EXPECT_EQ(Json::parse(dumped).dump(indent), dumped)
                    << "seed " << GetParam() << " round " << round;
            }
        } catch (const ConfigError &e) {
            expectPositionInside(e.what(), text);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "seed " << GetParam() << " round " << round
                          << ": non-ConfigError exception " << e.what()
                          << "\n" << text;
        } catch (...) {
            ADD_FAILURE() << "seed " << GetParam() << " round " << round
                          << ": unknown exception\n" << text;
        }
    }
}

/** parse()'s result with only the top-level members in @p keys. */
Json
keepOnly(const Json &doc, std::initializer_list<std::string_view> keys)
{
    if (!doc.isObject())
        return doc;
    Json kept = Json::object();
    for (const auto &[key, value] : doc.members())
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            kept.set(key, value);
    return kept;
}

TEST_P(JsonFuzz, ParseMembersThrowsExactlyWhenParseDoes)
{
    // Mutations of documents shaped like a job-cache wrapper: a kept
    // member or two beside a large checked-only one.
    static const char kInsert[] = "{}[]\":,\\-+.eE0123456789 \n\tuk\x01";
    Rng rng(fuzzSeed(GetParam(), 0x6b656570));
    for (int round = 0; round < 48; ++round) {
        Json doc = Json::object();
        doc.set("k", randomDocument(rng));
        doc.set("skip", randomDocument(rng));
        if (rng.chance(0.5))
            doc.set(randomString(rng), randomDocument(rng));
        doc.set("entry", randomDocument(rng));
        std::string text = doc.dump(rng.chance(0.5) ? 2 : 0);
        const std::uint64_t edits = rng.below(4);
        for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t at = rng.below(text.size());
            switch (rng.below(4)) {
              case 0: text.erase(at, 1); break;
              case 1:
                text.insert(at, 1,
                            kInsert[rng.below(sizeof kInsert - 1)]);
                break;
              case 2:
                text[at] = static_cast<char>(text[at] ^
                                             (1 << rng.below(8)));
                break;
              default: text.resize(at); break;
            }
        }
        std::string parseError, membersError;
        Json parsed, members;
        try {
            parsed = Json::parse(text);
        } catch (const ConfigError &e) {
            parseError = e.what();
        }
        try {
            members = Json::parseMembers(text, {"k", "entry"});
        } catch (const ConfigError &e) {
            membersError = e.what();
        }
        ASSERT_EQ(membersError, parseError)
            << "seed " << GetParam() << " round " << round << "\n" << text;
        if (parseError.empty()) {
            EXPECT_EQ(members, keepOnly(parsed, {"k", "entry"}))
                << "seed " << GetParam() << " round " << round;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz,
                         ::testing::Range(0, fuzzSeedCount()));

} // namespace
} // namespace lsqca
