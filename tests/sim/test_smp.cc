/** @file Multiprogrammed-SMP extension tests. */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/config.h"
#include "sim/smp.h"
#include "sim/system.h"
#include "support/logging.h"
#include "tree/scheme.h"

namespace cmt
{
namespace
{

SmpConfig
quickConfig(std::vector<std::string> benchmarks, Scheme scheme)
{
    SmpConfig cfg;
    cfg.benchmarks = std::move(benchmarks);
    cfg.warmupInstructions = 30'000;
    cfg.measureInstructions = 80'000;
    cfg.l2.scheme = scheme;
    return cfg;
}

TEST(SmpTest, TwoCoresRunCleanly)
{
    SmpSystem smp(quickConfig({"gzip", "twolf"}, Scheme::kCached));
    const SmpResult r = smp.run();
    ASSERT_EQ(r.perCore.size(), 2u);
    EXPECT_GE(r.perCore[0].instructions, 80'000u);
    EXPECT_GE(r.perCore[1].instructions, 80'000u);
    EXPECT_EQ(r.integrityFailures, 0u);
    EXPECT_GT(r.aggregateIpc, 0.0);
}

TEST(SmpTest, Deterministic)
{
    const SmpResult a =
        SmpSystem(quickConfig({"gcc", "vpr"}, Scheme::kCached)).run();
    const SmpResult b =
        SmpSystem(quickConfig({"gcc", "vpr"}, Scheme::kCached)).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.aggregateIpc, b.aggregateIpc);
}

TEST(SmpTest, SharedMachineSlowsEachProgram)
{
    // A program running alongside a bandwidth hog must be slower than
    // running alone on the same machine.
    SmpConfig solo = quickConfig({"twolf"}, Scheme::kCached);
    SmpConfig pair = quickConfig({"twolf", "swim"}, Scheme::kCached);
    const SmpResult alone = SmpSystem(solo).run();
    const SmpResult shared = SmpSystem(pair).run();
    EXPECT_LT(shared.perCore[0].ipc, alone.perCore[0].ipc)
        << "bus/hash contention must be visible";
}

TEST(SmpTest, FourCoreTreeStaysConsistent)
{
    SmpSystem smp(quickConfig({"gzip", "twolf", "vpr", "gcc"},
                              Scheme::kCached));
    (void)smp.run();
    System &sys = smp.system();
    sys.l2().flushAllDirty();
    while (!sys.events().empty())
        sys.events().runUntil(sys.events().nextEventTime());
    EXPECT_EQ(sys.l2().integrityFailures(), 0u);
    EXPECT_TRUE(sys.l2().verifyTreeConsistency());
}

TEST(SmpTest, TamperInOneSliceDetected)
{
    SmpConfig cfg = quickConfig({"twolf", "vpr"}, Scheme::kCached);
    SmpSystem smp(cfg);
    System &sys = smp.system();
    sys.runUntilCommitted(30'000);
    // Corrupt core 1's slice (second 4 GB) in its hot random region.
    const auto &layout = sys.l2().layout();
    for (std::uint64_t a = 0; a < (128 << 10); a += 2048) {
        std::uint8_t poison[8] = {0xBA, 0xD0};
        sys.ram().write(
            layout.dataToRam(SmpSystem::sliceOffset(1) +
                             (64ULL << 20) + a),
            poison);
    }
    sys.runUntilCommitted(200'000);
    EXPECT_GT(sys.l2().integrityFailures(), 0u);
}

TEST(SmpTest, DeadlockPanicsPromptly)
{
    // With no check-buffer entries no verification can ever issue, so
    // the cores stall for good. The run must stop with the no-progress
    // panic instead of spinning.
    SmpConfig cfg = quickConfig({"twolf", "swim"}, Scheme::kCached);
    cfg.l2.readBufferEntries = 0;
    cfg.l2.writeBufferEntries = 0;
    ScopedThrowOnError guard;
    try {
        (void)SmpSystem(cfg).run();
        FAIL() << "a machine without check buffers completed its run";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("no commit progress"),
                  std::string::npos)
            << e.what();
    }
}

/** A one-program SMP machine is the single-core System. */
class SmpOneCore
    : public ::testing::TestWithParam<std::tuple<Scheme, unsigned>>
{
};

TEST_P(SmpOneCore, OneCoreMatchesSystem)
{
    const auto [scheme, shards] = GetParam();
    SmpConfig smp = quickConfig({"twolf"}, scheme);
    smp.l2.shards = shards;
    SystemConfig single;
    single.benchmark = "twolf";
    single.seed = smp.seed;
    single.warmupInstructions = smp.warmupInstructions;
    single.measureInstructions = smp.measureInstructions;
    single.core = smp.core;
    single.l2 = smp.l2;
    single.mem = smp.mem;
    single.hash = smp.hash;

    const SmpResult a = SmpSystem(smp).run();
    const SimResult b = simulate(single);
    ASSERT_EQ(a.perCore.size(), 1u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.perCore[0].instructions, b.instructions);
    EXPECT_EQ(a.bandwidthBytesPerCycle, b.bandwidthBytesPerCycle);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndShards, SmpOneCore,
    ::testing::Combine(::testing::Values(Scheme::kBase, Scheme::kNaive,
                                         Scheme::kCached,
                                         Scheme::kIncremental),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, unsigned>>
           &info) {
        return std::string(schemeName(std::get<0>(info.param))) + "_k" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace cmt
