/** @file Bus/DRAM timing model tests. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/backing_store.h"
#include "mem/main_memory.h"

namespace cmt
{
namespace
{

struct Fixture
{
    EventQueue events;
    BackingStore store;
    StatGroup stats;
    MemTimingParams params;
    MainMemory mem{events, store, params, stats};
};

TEST(MainMemoryTest, SingleReadLatency)
{
    Fixture f;
    Cycle completed = 0;
    f.mem.read(0, 64, [&]() {
        completed = f.events.now();
    });
    f.events.runUntil(10000);
    // addr bus at cycle 0, DRAM 80 cycles, 64B over 8B@5cyc = 40.
    EXPECT_EQ(completed, 0u + 80 + 40);
}

TEST(MainMemoryTest, BackToBackReadsSerialiseOnDataBus)
{
    Fixture f;
    std::vector<Cycle> completions;
    for (int i = 0; i < 4; ++i) {
        f.mem.read(i * 64, 64, [&]() {
            completions.push_back(f.events.now());
        });
    }
    f.events.runUntil(100000);
    ASSERT_EQ(completions.size(), 4u);
    // First: 120. Later ones pipeline behind the data bus (40/block)
    // once DRAM latency is covered.
    EXPECT_EQ(completions[0], 120u);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(completions[i] - completions[i - 1], 40u)
            << "data bus should be the steady-state bottleneck";
}

TEST(MainMemoryTest, BandwidthAccounting)
{
    Fixture f;
    for (int i = 0; i < 10; ++i)
        f.mem.read(i * 64, 64, [] {});
    f.mem.write(0, 64);
    f.events.runUntil(100000);
    EXPECT_EQ(f.mem.stat_reads.value(), 10u);
    EXPECT_EQ(f.mem.stat_writes.value(), 1u);
    EXPECT_EQ(f.mem.stat_bytesRead.value(), 640u);
    EXPECT_EQ(f.mem.stat_bytesWritten.value(), 64u);
    EXPECT_EQ(f.mem.dataBusBusyCycles(), 11u * 40u);
}

TEST(MainMemoryTest, PeakBandwidthMatchesTable1)
{
    Fixture f;
    // 8 bytes per 5 CPU cycles = 1.6 GB/s at 1 GHz.
    EXPECT_DOUBLE_EQ(f.mem.peakBytesPerCycle(), 1.6);
}

TEST(MainMemoryTest, WritesOccupyDataBusWithoutDramLatency)
{
    Fixture f;
    Cycle done = 0;
    f.mem.write(0, 64, [&]() { done = f.events.now(); });
    f.events.runUntil(10000);
    EXPECT_EQ(done, 40u); // no 80-cycle DRAM wait for posted writes
}

// A chained read is N reads with one event: after prior traffic, its
// completion cycle, the bus state it leaves and every mem.* counter
// equal those of N separate read() calls, and its one event keeps
// the last read's place among same-cycle events.
TEST(MainMemoryTest, ReadChainMatchesIndividualReads)
{
    constexpr unsigned kReads = 13;
    const auto prior_traffic = [](Fixture &f) {
        f.mem.read(0, 64, [] {});
        f.mem.write(64, 64);
        f.mem.read(128, 32, [] {});
        f.events.runUntil(150);
    };

    Fixture single;
    prior_traffic(single);
    const std::uint64_t single_before = single.events.executedCount();
    Cycle single_done = 0;
    for (unsigned i = 0; i < kReads; ++i) {
        single.mem.read(i * 64, 64, [&, i]() {
            if (i + 1 == kReads)
                single_done = single.events.now();
        });
    }
    Cycle single_next = 0;
    single.mem.read(0, 64, [&]() { single_next = single.events.now(); });
    single.events.runUntil(100000);
    ASSERT_GT(single_done, 150u);

    Fixture chained;
    prior_traffic(chained);
    const std::uint64_t executed_before = chained.events.executedCount();
    std::vector<char> order;
    Cycle chained_done = 0;
    chained.events.schedule(single_done, [&] { order.push_back('b'); });
    chained.mem.readChain(64, kReads, [&]() {
        chained_done = chained.events.now();
        order.push_back('c');
    });
    chained.events.schedule(single_done, [&] { order.push_back('a'); });
    Cycle chained_next = 0;
    chained.mem.read(0, 64,
                     [&]() { chained_next = chained.events.now(); });
    chained.events.runUntil(100000);

    EXPECT_EQ(chained_done, single_done);
    EXPECT_EQ(order, (std::vector<char>{'b', 'c', 'a'}));
    // Same bus state: the read issued next completes at the same cycle.
    EXPECT_EQ(chained_next, single_next);
    EXPECT_EQ(chained.mem.dataBusBusyCycles(),
              single.mem.dataBusBusyCycles());
    EXPECT_EQ(chained.mem.stat_reads.value(), single.mem.stat_reads.value());
    EXPECT_EQ(chained.mem.stat_writes.value(),
              single.mem.stat_writes.value());
    EXPECT_EQ(chained.mem.stat_bytesRead.value(),
              single.mem.stat_bytesRead.value());
    EXPECT_EQ(chained.mem.stat_bytesWritten.value(),
              single.mem.stat_bytesWritten.value());
    // The chain runs one event where the reads ran kReads; the
    // chained run adds its two markers.
    EXPECT_EQ(chained.events.executedCount() - executed_before,
              single.events.executedCount() - single_before -
                  (kReads - 1) + 2);
}

TEST(EventQueueTest, FifoOrderingAtSameCycle)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(0); });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleIn(2, [&] { ++fired; });
    });
    q.runUntil(10);
    EXPECT_EQ(fired, 2);
}

} // namespace
} // namespace cmt
