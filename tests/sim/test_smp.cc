/** @file Multiprogrammed-SMP extension tests. */

#include <gtest/gtest.h>

#include <string>

#include "sim/config.h"
#include "sim/system.h"
#include "support/logging.h"
#include "tree/scheme.h"

namespace cmt
{
namespace
{

/** A small-window machine running @p benchmark, a '+'-joined mix. */
SystemConfig
quickMachine(Scheme scheme, const std::string &benchmark)
{
    SystemConfig cfg;
    cfg.benchmark = benchmark;
    cfg.warmupInstructions = 30'000;
    cfg.measureInstructions = 80'000;
    cfg.l2.scheme = scheme;
    // Room for four staggered 4 GB per-core slices.
    cfg.l2.protectedSize = 32ULL << 30;
    return cfg;
}

TEST(SmpTest, TwoCoresRunCleanly)
{
    System smp(quickMachine(Scheme::kCached, "gzip+twolf"));
    const SimResult r = smp.run();
    EXPECT_GE(smp.core(0).committed(), 80'000u);
    EXPECT_GE(smp.core(1).committed(), 80'000u);
    EXPECT_EQ(r.instructions,
              smp.core(0).committed() + smp.core(1).committed());
    EXPECT_EQ(r.integrityFailures, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_EQ(r.benchmark, "gzip+twolf");
    ASSERT_EQ(r.perCoreIpc.size(), 2u);
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(r.perCoreIpc[i],
                  static_cast<double>(smp.core(i).committed()) / r.cycles);
    EXPECT_GT(r.verifyBytesPerCycle, 0.0);
}

TEST(SmpTest, OnlySmpOrShardedMachinesReportTheSplit)
{
    // The paper's one-core, one-tree machine reports neither per-core
    // IPC nor verify bandwidth; one more shard makes it report both.
    SystemConfig machine = quickMachine(Scheme::kCached, "twolf");
    const SimResult paper = simulate(machine);
    EXPECT_TRUE(paper.perCoreIpc.empty());
    EXPECT_EQ(paper.verifyBytesPerCycle, 0.0);

    machine.l2.shards = 2;
    const SimResult sharded = simulate(machine);
    ASSERT_EQ(sharded.perCoreIpc.size(), 1u);
    EXPECT_EQ(sharded.perCoreIpc[0], sharded.ipc);
    EXPECT_GT(sharded.verifyBytesPerCycle, 0.0);
}

TEST(SmpTest, Deterministic)
{
    const SystemConfig machine = quickMachine(Scheme::kCached, "gcc+vpr");
    const SimResult a = simulate(machine);
    const SimResult b = simulate(machine);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(SmpTest, SharedMachineSlowsEachProgram)
{
    // A program running alongside a bandwidth hog must be slower than
    // running alone on the same machine.
    System alone(quickMachine(Scheme::kCached, "twolf"));
    System shared(quickMachine(Scheme::kCached, "twolf+swim"));
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
    System sys(quickMachine(Scheme::kCached, "gzip+twolf+vpr+gcc"));
    (void)sys.run();
    sys.l2().flushAllDirty();
    while (!sys.events().empty())
        sys.events().runUntil(sys.events().nextEventTime());
    EXPECT_EQ(sys.l2().integrityFailures(), 0u);
    EXPECT_TRUE(sys.l2().verifyTreeConsistency());
}

TEST(SmpTest, TamperInOneSliceDetected)
{
    const SystemConfig machine = quickMachine(Scheme::kCached, "twolf+vpr");
    System sys(machine);
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
    SystemConfig machine = quickMachine(Scheme::kCached, "twolf");
    machine.l2.protectedSize = 4ULL << 30;
    (void)System(machine);
    machine.benchmark = "twolf+gzip";
    ScopedThrowOnError guard;
    EXPECT_THROW((void)System(machine), SimError);
}

TEST(SmpTest, DeadlockPanicsPromptly)
{
    // With no check-buffer entries no verification can ever issue, so
    // the cores stall for good. The run must stop with the no-progress
    // panic instead of spinning.
    SystemConfig machine = quickMachine(Scheme::kCached, "twolf+swim");
    machine.l2.readBufferEntries = 0;
    machine.l2.writeBufferEntries = 0;
    ScopedThrowOnError guard;
    try {
        (void)simulate(machine);
        FAIL() << "a machine without check buffers completed its run";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("no commit progress"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace cmt
