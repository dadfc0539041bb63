/** @file Unit tests for the statistics registry. */

#include <gtest/gtest.h>

#include <sstream>

#include "support/stats.h"

namespace cmt
{
namespace
{

TEST(StatsTest, CounterBasics)
{
    StatGroup group;
    Counter c(group, "unit.hits", "number of hits");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(group.counterValue("unit.hits"), 5u);
    EXPECT_EQ(group.counterValue("unit.misses"), 0u);
}

TEST(StatsTest, ResetAllClearsEverything)
{
    StatGroup group;
    Counter c(group, "a", "");
    c += 10;
    group.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatsTest, DumpContainsNamesAndValues)
{
    StatGroup group;
    Counter c(group, "l2.misses", "L2 misses");
    c += 123;
    std::ostringstream os;
    group.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("l2.misses"), std::string::npos);
    EXPECT_NE(out.find("123"), std::string::npos);
    EXPECT_NE(out.find("L2 misses"), std::string::npos);
}

} // namespace
} // namespace cmt
