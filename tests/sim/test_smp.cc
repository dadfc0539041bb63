/** @file Multiprogrammed-SMP extension tests. */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "sim/config.h"
#include "sim/system.h"
#include "support/logging.h"
#include "tree/scheme.h"

namespace cmt
{
namespace
{

SystemConfig
quickMachine(Scheme scheme)
{
    SystemConfig cfg;
    cfg.warmupInstructions = 30'000;
    cfg.measureInstructions = 80'000;
    cfg.l2.scheme = scheme;
    // Room for four staggered 4 GB per-core slices.
    cfg.l2.protectedSize = 32ULL << 30;
    return cfg;
}

/** One core per benchmark over @p machine's uncore. */
System
mix(const SystemConfig &machine, const std::vector<std::string> &benchmarks)
{
    return System(machine, mixTraces(machine, benchmarks));
}

TEST(SmpTest, TwoCoresRunCleanly)
{
    System smp = mix(quickMachine(Scheme::kCached), {"gzip", "twolf"});
    const SimResult r = smp.run();
    EXPECT_GE(smp.core(0).committed(), 80'000u);
    EXPECT_GE(smp.core(1).committed(), 80'000u);
    EXPECT_EQ(r.instructions,
              smp.core(0).committed() + smp.core(1).committed());
    EXPECT_EQ(r.integrityFailures, 0u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(SmpTest, Deterministic)
{
    const SystemConfig machine = quickMachine(Scheme::kCached);
    const SimResult a = mix(machine, {"gcc", "vpr"}).run();
    const SimResult b = mix(machine, {"gcc", "vpr"}).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(SmpTest, SharedMachineSlowsEachProgram)
{
    // A program running alongside a bandwidth hog must be slower than
    // running alone on the same machine.
    const SystemConfig machine = quickMachine(Scheme::kCached);
    System alone = mix(machine, {"twolf"});
    System shared = mix(machine, {"twolf", "swim"});
    const SimResult a = alone.run();
    const SimResult s = shared.run();
    const double alone_ipc =
        static_cast<double>(alone.core(0).committed()) / a.cycles;
    const double shared_ipc =
        static_cast<double>(shared.core(0).committed()) / s.cycles;
    EXPECT_LT(shared_ipc, alone_ipc)
        << "bus/hash contention must be visible";
}

TEST(SmpTest, FourCoreTreeStaysConsistent)
{
    System sys = mix(quickMachine(Scheme::kCached),
                     {"gzip", "twolf", "vpr", "gcc"});
    (void)sys.run();
    sys.l2().flushAllDirty();
    while (!sys.events().empty())
        sys.events().runUntil(sys.events().nextEventTime());
    EXPECT_EQ(sys.l2().integrityFailures(), 0u);
    EXPECT_TRUE(sys.l2().verifyTreeConsistency());
}

TEST(SmpTest, TamperInOneSliceDetected)
{
    const SystemConfig machine = quickMachine(Scheme::kCached);
    System sys = mix(machine, {"twolf", "vpr"});
    sys.runUntilCommitted(30'000);
    // Corrupt core 1's slice (second 4 GB) in its hot random region.
    const auto &layout = sys.l2().layout();
    for (std::uint64_t a = 0; a < (128 << 10); a += 2048) {
        std::uint8_t poison[8] = {0xBA, 0xD0};
        sys.ram().write(
            layout.dataToRam(coreSliceOffset(machine.l2, 1) +
                             (64ULL << 20) + a),
            poison);
    }
    sys.runUntilCommitted(200'000);
    EXPECT_GT(sys.l2().integrityFailures(), 0u);
}

TEST(SmpTest, SlicesMustFitTheProtectedRegion)
{
    // Two 4 GB slices do not fit in L2Params' default 4 GB region.
    SystemConfig machine = quickMachine(Scheme::kCached);
    machine.l2.protectedSize = 4ULL << 30;
    (void)mixTraces(machine, {"twolf"});
    ScopedThrowOnError guard;
    EXPECT_THROW((void)mixTraces(machine, {"twolf", "gzip"}), SimError);
}

TEST(SmpTest, DeadlockPanicsPromptly)
{
    // With no check-buffer entries no verification can ever issue, so
    // the cores stall for good. The run must stop with the no-progress
    // panic instead of spinning.
    SystemConfig machine = quickMachine(Scheme::kCached);
    machine.l2.readBufferEntries = 0;
    machine.l2.writeBufferEntries = 0;
    ScopedThrowOnError guard;
    try {
        (void)mix(machine, {"twolf", "swim"}).run();
        FAIL() << "a machine without check buffers completed its run";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("no commit progress"),
                  std::string::npos)
            << e.what();
    }
}

/** A one-program mix is the single-core System on the same config. */
class SmpOneCore
    : public ::testing::TestWithParam<std::tuple<Scheme, unsigned>>
{
};

TEST_P(SmpOneCore, OneCoreMatchesSystem)
{
    const auto [scheme, shards] = GetParam();
    SystemConfig single = quickMachine(scheme);
    single.l2.shards = shards;
    single.benchmark = "twolf";

    const SimResult a = mix(single, {"twolf"}).run();
    const SimResult b = simulate(single);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
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
