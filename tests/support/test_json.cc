/**
 * @file
 * Json writer/parser unit tests: escaping, number round-tripping,
 * member ordering, parse failures, and StatGroup serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/json.h"
#include "support/random.h"
#include "support/stats.h"

namespace cmt
{
namespace
{

TEST(Json, ScalarDump)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(), "1099511627776");
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
    EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
    EXPECT_EQ(Json("line\nbreak\ttab").dump(),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(Json(std::string("\x01", 1)).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("alpha", 2);
    obj.set("zebra", 3); // overwrite in place, not reordered
    EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"alpha\":2}");
    EXPECT_EQ(obj.size(), 2u);
}

TEST(Json, ArrayAndNesting)
{
    Json doc = Json::object();
    Json arr = Json::array();
    arr.push(1).push("two").push(Json());
    doc.set("list", std::move(arr));
    EXPECT_EQ(doc.dump(), "{\"list\":[1,\"two\",null]}");
    EXPECT_EQ(doc.at("list").at(1).asString(), "two");
}

TEST(Json, PrettyPrint)
{
    Json doc = Json::object();
    doc.set("a", 1);
    EXPECT_EQ(doc.dump(2), "{\n  \"a\": 1\n}\n");
    EXPECT_EQ(Json::array().dump(2), "[]\n");
}

TEST(Json, NumberRoundTrip)
{
    const double values[] = {0.0,   0.1,    1.0 / 3.0, 6.4,
                             1e-9,  2.5e17, -123.456,  0.2737150364};
    for (const double v : values) {
        Json parsed;
        ASSERT_TRUE(Json::parse(Json(v).dump(), &parsed));
        EXPECT_EQ(parsed.asNumber(), v) << "value " << v;
    }
}

TEST(Json, ParseDocument)
{
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(
        " { \"runs\" : [ { \"ipc\" : 1.25, \"ok\" : true } ],\n"
        "   \"n\" : -3e2, \"name\" : \"fig\\u0033\" } ",
        &doc, &err))
        << err;
    EXPECT_EQ(doc.at("runs").at(0).at("ipc").asNumber(), 1.25);
    EXPECT_TRUE(doc.at("runs").at(0).at("ok").asBool());
    EXPECT_EQ(doc.at("n").asNumber(), -300.0);
    EXPECT_EQ(doc.at("name").asString(), "fig3");
}

TEST(Json, ParseRejectsMalformed)
{
    Json doc;
    std::string err;
    EXPECT_FALSE(Json::parse("{", &doc, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(Json::parse("[1,]", &doc));
    EXPECT_FALSE(Json::parse("{\"a\" 1}", &doc));
    EXPECT_FALSE(Json::parse("42 junk", &doc));
    EXPECT_FALSE(Json::parse("\"unterminated", &doc));
    EXPECT_FALSE(Json::parse("", &doc));
}

TEST(Json, WriterOutputReparses)
{
    Json doc = Json::object();
    doc.set("label", "gcc/cached/256K \"quoted\"");
    doc.set("ipc", 0.30577123456789);
    Json arr = Json::array();
    for (int i = 0; i < 3; ++i)
        arr.push(i * 1.5);
    doc.set("xs", std::move(arr));

    for (const int indent : {0, 2}) {
        Json back;
        std::string err;
        ASSERT_TRUE(Json::parse(doc.dump(indent), &back, &err)) << err;
        EXPECT_EQ(back.at("label").asString(),
                  "gcc/cached/256K \"quoted\"");
        EXPECT_EQ(back.at("ipc").asNumber(), 0.30577123456789);
        EXPECT_EQ(back.at("xs").size(), 3u);
    }
}

TEST(Json, StatGroupSerialization)
{
    StatGroup stats;
    Counter hits(stats, "l2.hits", "hits");
    Counter misses(stats, "l2.misses", "misses");
    ++hits;
    hits += 9;

    const Json obj = toJson(stats);
    EXPECT_EQ(obj.at("l2.hits").asNumber(), 10.0);
    EXPECT_EQ(obj.at("l2.misses").asNumber(), 0.0);

    Json back;
    ASSERT_TRUE(Json::parse(obj.dump(2), &back));
    EXPECT_EQ(back.at("l2.hits").asNumber(), 10.0);
}

// ---------------------------------------------------------------------
// Property tests: serialize -> parse -> serialize must be the identity
// on bytes for any document the writer can produce. The persistent
// memo cache and the regression harness both rely on this (dump()
// equality is their definition of "same result").
// ---------------------------------------------------------------------

/** Random string over printables, escapes, and control characters. */
std::string
randomString(Rng &rng)
{
    static const char alphabet[] =
        "abcXYZ 0123456789_/\\\"\n\t\r\b\f\x01\x1f{}[]:,\x7f";
    std::string s;
    const std::size_t len = rng.below(24);
    for (std::size_t i = 0; i < len; ++i)
        s += alphabet[rng.below(sizeof alphabet - 1)];
    return s;
}

/** Random finite double spanning magnitudes and integer values. */
double
randomNumber(Rng &rng)
{
    switch (rng.below(5)) {
    case 0:
        return static_cast<double>(rng.next() >> 12) -
               static_cast<double>(1ULL << 51); // large integers
    case 1:
        return static_cast<double>(
            static_cast<std::int64_t>(rng.below(2000)) - 1000);
    case 2:
        return rng.real(); // [0, 1)
    case 3:
        return (rng.real() - 0.5) *
               std::pow(10.0, static_cast<double>(rng.range(0, 300)) -
                                  150.0); // extreme exponents
    default:
        return std::ldexp(rng.real() + 1.0,
                          static_cast<int>(rng.range(0, 64)) - 32);
    }
}

Json
randomValue(Rng &rng, unsigned depth)
{
    const std::uint64_t kinds = depth == 0 ? 4 : 6;
    switch (rng.below(kinds)) {
    case 0: return Json();
    case 1: return Json(rng.chance(0.5));
    case 2: return Json(randomNumber(rng));
    case 3: return Json(randomString(rng));
    case 4: {
        Json arr = Json::array();
        const std::size_t n = rng.below(5);
        for (std::size_t i = 0; i < n; ++i)
            arr.push(randomValue(rng, depth - 1));
        return arr;
    }
    default: {
        Json obj = Json::object();
        const std::size_t n = rng.below(5);
        for (std::size_t i = 0; i < n; ++i)
            obj.set(randomString(rng), randomValue(rng, depth - 1));
        return obj;
    }
    }
}

TEST(JsonProperty, RandomDocumentsRoundTripByteIdentically)
{
    Rng rng(20030212); // deterministic: fixed seed, fixed doc count
    for (int trial = 0; trial < 200; ++trial) {
        const Json doc = randomValue(rng, 3);
        const std::string first = doc.dump();

        Json parsed;
        std::string err;
        ASSERT_TRUE(Json::parse(first, &parsed, &err))
            << "trial " << trial << ": " << err << "\n" << first;
        EXPECT_EQ(parsed.dump(), first) << "trial " << trial;

        // Pretty-printing must not change the value either.
        Json fromPretty;
        ASSERT_TRUE(Json::parse(doc.dump(2), &fromPretty, &err))
            << "trial " << trial << ": " << err;
        EXPECT_EQ(fromPretty.dump(), first) << "trial " << trial;
    }
}

TEST(JsonProperty, RandomNumbersRoundTripExactly)
{
    Rng rng(42);
    for (int trial = 0; trial < 2000; ++trial) {
        const double v = randomNumber(rng);
        Json parsed;
        ASSERT_TRUE(Json::parse(Json(v).dump(), &parsed))
            << "value " << v;
        EXPECT_EQ(parsed.asNumber(), v) << "value " << v;
    }
}

TEST(JsonProperty, RandomStringsRoundTripExactly)
{
    Rng rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string s = randomString(rng);
        Json parsed;
        ASSERT_TRUE(Json::parse(Json(s).dump(), &parsed))
            << "string " << Json(s).dump();
        EXPECT_EQ(parsed.asString(), s);
    }
}

} // namespace
} // namespace cmt
