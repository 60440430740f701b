/**
 * @file
 * Json parser/accessor tests: parse(dump(x)) == x, strict syntax
 * errors with positions, and accessor type checking. The spec and
 * BENCH pipelines both stand on these guarantees.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/json.h"

namespace lsqca {
namespace {

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_FALSE(Json::parse("false").asBool());
    EXPECT_EQ(Json::parse("42").asInt(), 42);
    EXPECT_EQ(Json::parse("-7").asInt(), -7);
    EXPECT_TRUE(Json::parse("42").isInt());
    EXPECT_DOUBLE_EQ(Json::parse("0.25").asDouble(), 0.25);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
    EXPECT_FALSE(Json::parse("0.25").isInt());
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(Json::parse(R"("a\"b\\c\nd\te")").asString(),
              "a\"b\\c\nd\te");
    EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
    EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(JsonParse, NestedDocument)
{
    const Json doc = Json::parse(
        R"({"a": [1, 2.5, "x", null], "b": {"c": true}})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.size(), 2u);
    const Json &a = doc.at("a");
    ASSERT_TRUE(a.isArray());
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a.items()[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(a.items()[1].asDouble(), 2.5);
    EXPECT_EQ(a.items()[2].asString(), "x");
    EXPECT_TRUE(a.items()[3].isNull());
    EXPECT_TRUE(doc.at("b").at("c").asBool());
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_THROW(doc.at("missing"), ConfigError);
}

TEST(JsonParse, RoundTripsItsOwnDump)
{
    Json doc = Json::object();
    doc.set("name", "sweep/point#1");
    doc.set("count", std::int64_t{123456789012345});
    doc.set("ratio", 1.0 / 3.0);
    doc.set("tiny", 1e-300);
    doc.set("flag", false);
    Json list = Json::array();
    list.push(Json());
    list.push(-1);
    list.push(0.05 * 13); // awkward binary fraction
    doc.set("list", std::move(list));
    for (int indent : {0, 2, 4}) {
        const Json reparsed = Json::parse(doc.dump(indent));
        EXPECT_EQ(reparsed, doc) << "indent " << indent;
        EXPECT_EQ(reparsed.dump(2), doc.dump(2));
    }
}

TEST(JsonParse, PreservesKeyOrder)
{
    const Json doc = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "z");
    EXPECT_EQ(doc.members()[1].first, "a");
    EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(JsonParse, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\" 1}", "{\"a\": }", "tru", "01x",
          "\"unterminated", "[1] trailing", "{\"a\":1,}", "[1,,2]",
          "nan", "--1", "{\"a\":1 \"b\":2}", "\"bad\\q\"", "01",
          "-012", ".5", "-.5", "1.", "1.e3", "[1.]", "{\"a\":.5}", "1e",
          "1e+", "-", "+1", "1.5e", "0x10", "1e5.5", "2-1"}) {
        EXPECT_THROW(Json::parse(bad), ConfigError) << bad;
    }
}

TEST(JsonDump, GoldenBytes)
{
    // One document with every kind: the bytes every BENCH file, spec
    // dump and job fingerprint stand on.
    Json doc = Json::object();
    Json nested = Json::object();
    nested.set("object", Json::object());
    Json arr = Json::array();
    arr.push(Json::array());
    arr.push(Json::object());
    nested.set("array", std::move(arr));
    doc.set("empty", std::move(nested));
    doc.set("int_min", std::numeric_limits<std::int64_t>::min());
    doc.set("int_max", std::numeric_limits<std::int64_t>::max());
    Json doubles = Json::array();
    for (const double v : {0.1, 1.0 / 3.0, 1e-300, 1e300, 5.0, -0.0,
                           std::numeric_limits<double>::quiet_NaN()})
        doubles.push(v);
    doc.set("doubles", std::move(doubles));
    doc.set("text", "q\" b\\ n\n t\t r\r c\x01 \xc3\xa9\xe2\x88\x91");
    Json scalars = Json::array();
    scalars.push(Json());
    scalars.push(true);
    scalars.push(false);
    scalars.push(std::int32_t{-7});
    doc.set("scalars", std::move(scalars));

    EXPECT_EQ(doc.dump(0),
              R"({"empty":{"object":{},"array":[[],{}]},)"
              R"("int_min":-9223372036854775808,)"
              R"("int_max":9223372036854775807,)"
              R"("doubles":[0.10000000000000001,0.33333333333333331,)"
              R"(1e-300,1.0000000000000001e+300,5,-0,null],)"
              R"("text":"q\" b\\ n\n t\t r\r c\u0001 )"
              "\xc3\xa9\xe2\x88\x91"
              R"(","scalars":[null,true,false,-7]})");
    EXPECT_EQ(doc.dump(2),
              "{\n"
              "  \"empty\": {\n"
              "    \"object\": {},\n"
              "    \"array\": [\n"
              "      [],\n"
              "      {}\n"
              "    ]\n"
              "  },\n"
              "  \"int_min\": -9223372036854775808,\n"
              "  \"int_max\": 9223372036854775807,\n"
              "  \"doubles\": [\n"
              "    0.10000000000000001,\n"
              "    0.33333333333333331,\n"
              "    1e-300,\n"
              "    1.0000000000000001e+300,\n"
              "    5,\n"
              "    -0,\n"
              "    null\n"
              "  ],\n"
              "  \"text\": \"q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 "
              "\xc3\xa9\xe2\x88\x91\",\n"
              "  \"scalars\": [\n"
              "    null,\n"
              "    true,\n"
              "    false,\n"
              "    -7\n"
              "  ]\n"
              "}\n");
}

TEST(JsonParse, BoundsNestingDepth)
{
    const auto nested = [](int levels) {
        return std::string(static_cast<std::size_t>(levels), '[') +
               std::string(static_cast<std::size_t>(levels), ']');
    };
    EXPECT_EQ(Json::parse(nested(1000)).size(), 1u);
    // Deep enough to overflow the stack of a parser without a bound.
    EXPECT_THROW(Json::parse(nested(200000)), ConfigError);
}

TEST(JsonParse, RejectsDuplicateKeys)
{
    EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), ConfigError);
}

TEST(JsonParseMembers, BuildsOnlyTheNamedTopLevelMembers)
{
    const std::string text =
        R"({"schema": "s", "provenance": {"a": [1, 2.5, "x\n"]}, )"
        R"("entry": {"cpi": 1.5}})";
    const Json doc = Json::parseMembers(text, {"schema", "entry"});
    EXPECT_EQ(doc.dump(0), R"({"schema":"s","entry":{"cpi":1.5}})");
    // Not an object: the whole value, as parse() gives it.
    EXPECT_EQ(Json::parseMembers("[1, {\"a\": 2}]", {"entry"}),
              Json::parse("[1, {\"a\": 2}]"));
}

TEST(JsonParseMembers, ChecksTheSkippedMembersAgainstTheFullGrammar)
{
    const auto wrapped = [](const std::string &provenance) {
        return "{\"provenance\": " + provenance + ", \"entry\": 1}";
    };
    // The wrapping object is one level of the 1,000.
    const std::string deep = std::string(999, '[') + std::string(999, ']');
    const std::string tooDeep =
        std::string(1000, '[') + std::string(1000, ']');
    EXPECT_NO_THROW(Json::parseMembers(wrapped(deep), {"entry"}));
    // Everything parse() rejects, each inside a member that is checked
    // but not built: the same error, with the same message.
    for (const std::string &bad :
         {tooDeep, std::string(R"({"a": 1, "a": 2})"),
          std::string(R"({"a": 1, "\u0061": 2})"),
          std::string(R"({"x": {"a": 1, "\u0061": 2}})"),
          std::string(R"(["\x"])"), std::string(R"(["\u12g4"])"),
          std::string("[\"\x01\"]"), std::string("[01]"),
          std::string("[1.]"), std::string("[1e999]"), std::string("[tru]"),
          std::string("{\"a\" 1}"), std::string("[1, ]"),
          std::string("{\"a\": 1")}) {
        std::string parseError, membersError;
        try {
            Json::parse(wrapped(bad));
        } catch (const ConfigError &e) {
            parseError = e.what();
        }
        try {
            Json::parseMembers(wrapped(bad), {"entry"});
        } catch (const ConfigError &e) {
            membersError = e.what();
        }
        EXPECT_FALSE(parseError.empty()) << bad.substr(0, 40);
        EXPECT_EQ(membersError, parseError) << bad.substr(0, 40);
    }
    // A duplicate between a kept and a skipped top-level key.
    EXPECT_THROW(
        Json::parseMembers(R"({"entry": 1, "\u0065ntry": 2})", {"entry"}),
        ConfigError);
}

TEST(JsonParse, ErrorsCarryPosition)
{
    try {
        Json::parse("{\n  \"a\": oops\n}");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("2:8"), std::string::npos)
            << e.what();
    }
}

TEST(JsonParse, BigIntegersStayExact)
{
    const std::int64_t big = 9007199254740993; // 2^53 + 1
    EXPECT_EQ(Json::parse(std::to_string(big)).asInt(), big);
    // Out-of-int64 integers degrade to doubles rather than failing...
    const Json huge = Json::parse("99999999999999999999999");
    EXPECT_TRUE(huge.isNumber());
    // ...and refuse integer conversion instead of overflowing.
    EXPECT_THROW(huge.asInt(), ConfigError);
    EXPECT_THROW(Json(1e23).asInt(), ConfigError);
}

TEST(JsonAccessors, TypeMismatchesThrow)
{
    const Json doc = Json::parse(R"({"s": "x", "n": 1.5})");
    EXPECT_THROW(doc.at("s").asInt(), ConfigError);
    EXPECT_THROW(doc.at("n").asInt(), ConfigError); // non-integral
    EXPECT_THROW(doc.at("s").asDouble(), ConfigError);
    EXPECT_THROW(doc.at("n").asString(), ConfigError);
    EXPECT_THROW(doc.at("n").asBool(), ConfigError);
    EXPECT_THROW(doc.items(), ConfigError);
    EXPECT_THROW(Json(1.5).members(), ConfigError);
    // Exact doubles convert to integers.
    EXPECT_EQ(Json(3.0).asInt(), 3);
}

TEST(JsonEquality, StructuralAndOrderSensitive)
{
    EXPECT_EQ(Json::parse("[1, 2]"), Json::parse("[1,2]"));
    EXPECT_NE(Json::parse("[1, 2]"), Json::parse("[2, 1]"));
    EXPECT_NE(Json::parse("{\"a\":1,\"b\":2}"),
              Json::parse("{\"b\":2,\"a\":1}"));
    EXPECT_NE(Json(1.0), Json(std::int64_t{1})); // kinds differ
}

} // namespace
} // namespace lsqca
