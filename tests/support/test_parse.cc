/**
 * @file
 * parseNumber(): the checked parser behind every numeric CLI flag.
 * Count flags (--jobs, --workers, --clients, ...) parse unsigned in
 * [0, kMaxCount]; sizes, seeds and instruction counts parse the full
 * std::uint64_t range; --hash-gbps parses a double.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "support/parse.h"

namespace cmt
{
namespace
{

std::optional<unsigned>
parseCount(const std::string &text)
{
    return parseNumber<unsigned>(text, 0, kMaxCount);
}

TEST(ParseWorkerCount, AcceptsPlainCounts)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("12"), 12u);
    EXPECT_EQ(parseCount("1000000"), 1'000'000u);
}

TEST(ParseWorkerCount, RejectsGarbageAndLeavesOutputUntouched)
{
    for (const char *text : {"", "12x", "x12", "1 2", "-4", "0x10"})
        EXPECT_EQ(parseCount(text), std::nullopt) << "'" << text << "'";
}

TEST(ParseWorkerCount, RejectsOverflowInsteadOfWrapping)
{
    // Past every integer type: must fail, not saturate into range.
    EXPECT_EQ(parseCount("99999999999999999999"), std::nullopt);
    // A valid unsigned but an absurd worker count.
    EXPECT_EQ(parseCount("1000001"), std::nullopt);
    EXPECT_EQ(parseCount("4294967296"), std::nullopt);
}

TEST(ParseNumber, Uint64RangeEdges)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    // min - 1, min, max, max + 1 of a positive byte count.
    EXPECT_EQ(parseNumber<std::uint64_t>("0", 1, kMax), std::nullopt);
    EXPECT_EQ(parseNumber<std::uint64_t>("1", 1, kMax), 1u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615", 1,
                                         kMax),
              kMax);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551616", 1,
                                         kMax),
              std::nullopt);
    // The same four probes on an interior range.
    EXPECT_EQ(parseNumber<std::uint64_t>("9", 10, 20), std::nullopt);
    EXPECT_EQ(parseNumber<std::uint64_t>("10", 10, 20), 10u);
    EXPECT_EQ(parseNumber<std::uint64_t>("20", 10, 20), 20u);
    EXPECT_EQ(parseNumber<std::uint64_t>("21", 10, 20), std::nullopt);
}

TEST(ParseNumber, UnsignedRejectsAnySign)
{
    // "--seed -1" used to wrap to 2^64 - 1.
    for (const char *text : {"-1", "-0", "+1"})
        EXPECT_EQ(parseNumber<std::uint64_t>(
                      text, 0, std::numeric_limits<std::uint64_t>::max()),
                  std::nullopt)
            << text;
}

TEST(ParseNumber, DoubleParsesLikeStrtodWithoutTrailingGarbage)
{
    constexpr double kLo = std::numeric_limits<double>::lowest();
    constexpr double kHi = std::numeric_limits<double>::max();
    EXPECT_EQ(parseNumber<double>("3.2", kLo, kHi), 3.2);
    // Semantic floors (HashEngine's minimum throughput) are the
    // caller's business: a tiny value still parses.
    EXPECT_EQ(parseNumber<double>("1e-300", kLo, kHi), 1e-300);
    for (const char *text : {"", "abc", "3.2x", "1e999"})
        EXPECT_EQ(parseNumber<double>(text, kLo, kHi), std::nullopt)
            << text;
}

} // namespace
} // namespace cmt
