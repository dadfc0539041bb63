/** @file Hash-engine timing model tests (Table 1 / Figure 6 basis). */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/logging.h"
#include "tree/hash_engine.h"

namespace cmt
{
namespace
{

struct Fixture
{
    explicit Fixture(double throughput = 3.2, unsigned latency = 80)
    {
        params.throughputBytesPerCycle = throughput;
        params.latency = latency;
        engine = std::make_unique<HashEngine>(events, params, stats);
    }

    EventQueue events;
    StatGroup stats;
    HashEngineParams params;
    std::unique_ptr<HashEngine> engine;
};

TEST(HashEngineTest, RejectsThroughputBelowFloor)
{
    // Below the floor one message's occupancy would overflow Cycle.
    ScopedThrowOnError guard;
    for (const double throughput :
         {1e-300, HashEngine::kMinThroughputBytesPerCycle / 2, 0.0,
          -1.0, std::nan("")})
        EXPECT_THROW(Fixture{throughput}, SimError) << throughput;
    Fixture slowest(HashEngine::kMinThroughputBytesPerCycle);
    Cycle done = 0;
    slowest.engine->hash(1, [&] { done = slowest.events.now(); });
    slowest.events.runUntil(1ULL << 21);
    EXPECT_EQ(done, (1ULL << 20) + 80);
}

TEST(HashEngineTest, SingleJobLatency)
{
    Fixture f;
    Cycle done = 0;
    f.engine->hash(64, [&] { done = f.events.now(); });
    f.events.runUntil(1000);
    // 64 bytes / 3.2 B/cyc = 20 cycles occupancy + 80 latency.
    EXPECT_EQ(done, 100u);
}

TEST(HashEngineTest, PipelinedJobsInitiateAtThroughput)
{
    // Back-to-back 64-byte jobs must complete 20 cycles apart (one
    // hash per 20 cycles = 3.2 GB/s at 1 GHz - the Table 1 figure).
    Fixture f;
    std::vector<Cycle> done;
    for (int i = 0; i < 5; ++i)
        f.engine->hash(64, [&] { done.push_back(f.events.now()); });
    f.events.runUntil(10'000);
    ASSERT_EQ(done.size(), 5u);
    EXPECT_EQ(done[0], 100u);
    for (int i = 1; i < 5; ++i)
        EXPECT_EQ(done[i] - done[i - 1], 20u);
}

TEST(HashEngineTest, ThroughputScalesOccupancy)
{
    // 6.4 GB/s = one 64-byte hash per 10 cycles (Figure 6's note).
    Fixture f(6.4);
    std::vector<Cycle> done;
    for (int i = 0; i < 3; ++i)
        f.engine->hash(64, [&] { done.push_back(f.events.now()); });
    f.events.runUntil(10'000);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[1] - done[0], 10u);
    EXPECT_EQ(done[2] - done[1], 10u);
}

TEST(HashEngineTest, BiggerJobsOccupyLonger)
{
    Fixture f;
    std::vector<Cycle> done;
    f.engine->hash(128, [&] { done.push_back(f.events.now()); });
    f.engine->hash(64, [&] { done.push_back(f.events.now()); });
    f.events.runUntil(10'000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 40u + 80u); // 128/3.2 = 40
    EXPECT_EQ(done[1], 40u + 20u + 80u);
}

TEST(HashEngineTest, IdleEngineAcceptsImmediately)
{
    Fixture f;
    f.events.runUntil(500); // long idle gap
    Cycle done = 0;
    f.engine->hash(64, [&] { done = f.events.now(); });
    f.events.runUntil(10'000);
    EXPECT_EQ(done, 600u);
}

TEST(HashEngineTest, StatsAccumulate)
{
    Fixture f;
    f.engine->hash(64, [] {});
    f.engine->hash(128, [] {});
    f.events.runUntil(10'000);
    EXPECT_EQ(f.engine->stat_jobs.value(), 2u);
    EXPECT_EQ(f.engine->stat_bytes.value(), 192u);
    EXPECT_EQ(f.engine->busyCycles(), 60u);
}

TEST(HashEngineTest, ChainCompletesWhenLastOfSeparateJobsWould)
{
    // The byte-identity contract of the batched policies: a chain of
    // N messages admitted at one instant completes at exactly the
    // cycle the last of N back-to-back hash() calls would, with the
    // same job/byte/occupancy accounting.
    Fixture chained;
    Fixture separate;

    Cycle chain_done = 0;
    chained.engine->hashChain(64, 5,
                              [&] { chain_done = chained.events.now(); });
    chained.events.runUntil(10'000);

    Cycle last_done = 0;
    for (int i = 0; i < 5; ++i)
        separate.engine->hash(64,
                              [&] { last_done = separate.events.now(); });
    separate.events.runUntil(10'000);

    EXPECT_EQ(chain_done, last_done);
    EXPECT_EQ(chained.engine->stat_jobs.value(),
              separate.engine->stat_jobs.value());
    EXPECT_EQ(chained.engine->stat_bytes.value(),
              separate.engine->stat_bytes.value());
    EXPECT_EQ(chained.engine->busyCycles(),
              separate.engine->busyCycles());
}

TEST(HashEngineTest, ChainRoundsOccupancyPerMessage)
{
    // Each message of a chain rounds its occupancy up independently -
    // a chain is N pipelined jobs, not one long message. Two 65-byte
    // messages at 3.2 B/cyc: ceil(20.3) + ceil(20.3) = 42 cycles, not
    // ceil(130 / 3.2) = 41.
    Fixture f;
    const unsigned msgs[] = {65, 65};
    Cycle done = 0;
    f.engine->hashChain(msgs, [&] { done = f.events.now(); });
    f.events.runUntil(10'000);
    EXPECT_EQ(done, 42u + 80u);
    EXPECT_EQ(f.engine->busyCycles(), 42u);
    EXPECT_EQ(f.engine->stat_jobs.value(), 2u);
    EXPECT_EQ(f.engine->stat_bytes.value(), 130u);
}

TEST(HashEngineTest, PerLaneAccountingSumsToTotals)
{
    // Regression: busy cycles and bytes are attributed to the lane a
    // job actually ran on (ids clamp modulo the lane count), and the
    // per-lane tallies always sum to busyCycles()/stat_bytes.
    EventQueue events;
    StatGroup stats;
    HashEngineParams params; // 3.2 B/cyc, latency 80
    HashEngine engine(events, params, stats, /*lanes=*/2);

    engine.hash(64, [] {}, /*lane=*/0);
    engine.hashChain(64, 3, [] {}, /*lane=*/1);
    engine.hash(128, [] {}, /*lane=*/5); // clamps to lane 1
    events.runUntil(10'000);

    EXPECT_EQ(engine.laneBusyCycles(0), 20u);
    EXPECT_EQ(engine.laneBusyCycles(1), 60u + 40u);
    EXPECT_EQ(engine.laneBusyCycles(5), engine.laneBusyCycles(1));
    EXPECT_EQ(engine.laneBusyCycles(0) + engine.laneBusyCycles(1),
              engine.busyCycles());
    EXPECT_EQ(engine.laneBytes(0), 64u);
    EXPECT_EQ(engine.laneBytes(1), 3u * 64u + 128u);
    EXPECT_EQ(engine.laneBytes(0) + engine.laneBytes(1),
              engine.stat_bytes.value());
}

TEST(HashEngineTest, LanesProgressIndependently)
{
    // Chains on different lanes overlap: each lane's chain starts at
    // cycle 0 rather than queueing behind the other lane.
    EventQueue events;
    StatGroup stats;
    HashEngineParams params;
    HashEngine engine(events, params, stats, /*lanes=*/2);

    Cycle done0 = 0;
    Cycle done1 = 0;
    engine.hashChain(64, 4, [&] { done0 = events.now(); }, 0);
    engine.hashChain(64, 4, [&] { done1 = events.now(); }, 1);
    events.runUntil(10'000);
    EXPECT_EQ(done0, 4u * 20u + 80u);
    EXPECT_EQ(done1, done0);
}

} // namespace
} // namespace cmt
