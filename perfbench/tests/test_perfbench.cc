/**
 * @file
 * Tests of the benchmark's own helpers: calibration arithmetic, the
 * percentile helper's refusal of thin tails, the shadow check, and
 * the agreement between BENCHMARK.json and the metrics the code
 * reports. The smoke runs of every workload are separate ctest
 * entries.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.h"
#include "report.h"
#include "shadow.h"
#include "support/json.h"
#include "workloads.h"

using namespace perfbench;

TEST(Calibration, SteadyHostLeavesTimesUnchanged)
{
    // Every sample equal to the reference: factor 1 everywhere.
    const std::vector<double> samples(6, kRefKernelSeconds);
    for (std::size_t unit = 0; unit < 5; ++unit)
        EXPECT_DOUBLE_EQ(
            calibrationFactor(samples, unit, kRefKernelSeconds), 1.0);
}

TEST(Calibration, SlowHostIsScaledBack)
{
    // A host running 25% slow makes the kernel take 1.25x as long; a
    // unit measured there is worth 1/1.25 of its raw time.
    const std::vector<double> samples(8, 1.25 * kRefKernelSeconds);
    EXPECT_DOUBLE_EQ(calibrationFactor(samples, 3, kRefKernelSeconds),
                     1 / 1.25);
    EXPECT_DOUBLE_EQ(
        2.5 * calibrationFactor(samples, 3, kRefKernelSeconds), 2.0);
}

TEST(Calibration, UnitUsesTheTwoSamplesAroundIt)
{
    // Unit i ran between samples i and i + 1: a drift from 1x to 3x
    // across it scales it by the reference over the 2x mean, and
    // samples further away do not count.
    const std::vector<double> samples = {1e-3, 3e-3, 50e-3, 1e-3};
    EXPECT_DOUBLE_EQ(calibrationFactor(samples, 0, 2e-3), 1.0);
    EXPECT_DOUBLE_EQ(calibrationFactor(samples, 2, 25.5e-3), 1.0);
    // The daemon workloads scale by the ping-pong reference the same
    // way.
    const std::vector<double> rtts = {2 * kRefPingPongSeconds,
                                      2 * kRefPingPongSeconds};
    EXPECT_DOUBLE_EQ(calibrationFactor(rtts, 0, kRefPingPongSeconds),
                     0.5);
}

TEST(Calibration, PingPongSampleMeasuresARoundTrip)
{
    const PingPong rtt = pingPongSample();
    EXPECT_GT(rtt.medianS, 0);
    EXPECT_GE(rtt.meanS, rtt.medianS * 0.5);
    EXPECT_LT(rtt.meanS, 0.01);
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 999; ++i)
        v.push_back(i);
    // p99 of 999 samples is rank 990: only 9 lie beyond it.
    EXPECT_FALSE(percentile(v, 99).has_value());
    v.push_back(1000);
    // 1000 samples: rank 990, exactly 10 beyond.
    ASSERT_TRUE(percentile(v, 99).has_value());
    EXPECT_DOUBLE_EQ(*percentile(v, 99), 990);
}

TEST(Percentile, MedianNeedsTwentySamples)
{
    std::vector<double> v;
    for (int i = 1; i <= 19; ++i)
        v.push_back(i);
    EXPECT_FALSE(percentile(v, 50).has_value());
    v.push_back(20);
    ASSERT_TRUE(percentile(v, 50).has_value());
    EXPECT_DOUBLE_EQ(*percentile(v, 50), 10);
    EXPECT_DOUBLE_EQ(median(v), 10.5);
}

TEST(Shadow, AcceptsTheInitialContentAndAcknowledgedWrites)
{
    ShadowSlice shadow(42, 4096, 8192);
    std::vector<std::uint8_t> block(64);
    fillInitialContent(42, 4096 + 640, block);
    EXPECT_TRUE(shadow.matches(4096 + 640, block));

    std::vector<std::uint8_t> data(64, 0xab);
    shadow.apply(4096 + 640, data);
    EXPECT_TRUE(shadow.matches(4096 + 640, data));
    EXPECT_FALSE(shadow.matches(4096 + 640, block));
}

TEST(Shadow, FlagsACorruptedRead)
{
    ShadowSlice shadow(7, 0, 4096);
    std::vector<std::uint8_t> block(64);
    fillInitialContent(7, 128, block);
    ASSERT_TRUE(shadow.matches(128, block));
    block[17] ^= 0x01; // one flipped bit
    EXPECT_FALSE(shadow.matches(128, block));
    // A different seed's content is not this store's.
    fillInitialContent(8, 128, block);
    EXPECT_FALSE(shadow.matches(128, block));
    // Reads outside the slice never match.
    EXPECT_FALSE(shadow.matches(4096, block));
}

namespace
{

/** The manifest's list @p key as (name, unit) pairs. */
std::vector<std::pair<std::string, std::string>>
manifestList(const cmt::Json &doc, const std::string &key)
{
    std::vector<std::pair<std::string, std::string>> out;
    const cmt::Json &list = doc.at(key);
    for (std::size_t i = 0; i < list.size(); ++i)
        out.emplace_back(list.at(i).at("name").asString(),
                         list.at(i).at("unit").asString());
    return out;
}

std::vector<std::pair<std::string, std::string>>
codeList(const std::vector<MetricSpec> &specs)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const MetricSpec &m : specs)
        out.emplace_back(m.name, m.unit);
    return out;
}

} // namespace

TEST(Manifest, ListsExactlyTheMetricsAndWorkloadsTheCodeReports)
{
    std::ifstream in(PERFBENCH_MANIFEST);
    std::stringstream text;
    text << in.rdbuf();
    cmt::Json doc;
    std::string err;
    ASSERT_TRUE(cmt::Json::parse(text.str(), &doc, &err)) << err;
    EXPECT_EQ(manifestList(doc, "end_to_end"), codeList(endToEndMetrics()));
    EXPECT_EQ(manifestList(doc, "per_layer"), codeList(perLayerMetrics()));
    const cmt::Json &workloads = doc.at("workloads");
    ASSERT_GE(workloads.size(), 2u);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const std::string name = workloads.at(i).at("name").asString();
        EXPECT_TRUE(isSimWorkload(name) || isServedWorkload(name)) << name;
    }
}
