/**
 * @file
 * Deep-tree stress regressions for L2Controller.
 *
 * These reproduce, at unit-test scale, the interleavings that broke
 * early versions of the controller:
 *  - a dirty block of a chunk being displaced while the same chunk's
 *    eviction is publishing its slot (nested-eviction clobbering);
 *  - the eviction cascade wrapping around a set and displacing a line
 *    the caller had just allocated (pointer invalidation);
 *  - long parent chains (13-level tree) under constant churn.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/backing_store.h"
#include "support/random.h"
#include "tree/l2_controller.h"

namespace cmt
{
namespace
{

struct DeepFixture
{
    explicit DeepFixture(Scheme scheme, std::uint64_t l2_size,
                         unsigned assoc,
                         std::uint64_t chunk_size = 64,
                         unsigned block_size = 64)
        : tree(chunk_size, 4ULL << 30), // 13-level tree, like twolf
          auth(scheme == Scheme::kIncremental
                   ? Authenticator::Kind::kXorMac
                   : Authenticator::Kind::kMd5,
               key(), block_size),
          ram(base, tree, auth),
          mem(events, ram, MemTimingParams{}, stats),
          hasher(events, HashEngineParams{}, stats),
          l2(events, mem, ram, hasher, tree, auth,
             params(scheme, l2_size, assoc, chunk_size, block_size),
             stats)
    {}

    static Key128
    key()
    {
        Key128 k;
        k.fill(0x42);
        return k;
    }

    static L2Params
    params(Scheme scheme, std::uint64_t l2_size, unsigned assoc,
           std::uint64_t chunk_size, unsigned block_size)
    {
        L2Params p;
        p.scheme = scheme;
        p.sizeBytes = l2_size;
        p.assoc = assoc;
        p.blockSize = block_size;
        p.chunkSize = chunk_size;
        p.protectedSize = 4ULL << 30;
        p.key = key();
        return p;
    }

    void
    drain()
    {
        while (!events.empty())
            events.runUntil(events.nextEventTime());
    }

    void
    write64(std::uint64_t addr, std::uint64_t value)
    {
        std::uint8_t buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
        l2.write(addr, buf);
    }

    void
    readWait(std::uint64_t addr)
    {
        bool done = false;
        l2.read(addr, 8, [&] { done = true; });
        while (!done) {
            cmt_assert(!events.empty());
            events.runUntil(events.nextEventTime());
        }
    }

    std::uint64_t
    ramData64(std::uint64_t addr)
    {
        std::uint8_t buf[8];
        static_cast<Storage &>(ram).read(layout.dataToRam(addr), buf);
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | buf[i];
        return v;
    }

    EventQueue events;
    StatGroup stats;
    BackingStore base;
    ShardRouter tree;
    /** Global geometry view (same as the old TreeLayout at K = 1). */
    const ShardRouter &layout{tree};
    Authenticator auth;
    ChunkStore ram;
    MainMemory mem;
    HashEngine hasher;
    L2Controller l2;
};

struct StressCase
{
    Scheme scheme;
    std::uint64_t l2Size;
    unsigned assoc;
    std::uint64_t chunkSize;
    unsigned blockSize;
    const char *name;
};

// gtest would print a StressCase as its raw bytes, padding and the
// `name` pointer included, and gtest_discover_tests puts that print
// into the ctest name, which then moves with every build.
void
PrintTo(const StressCase &sc, std::ostream *os)
{
    *os << sc.name;
}

class DeepTreeStress : public ::testing::TestWithParam<StressCase>
{
};

TEST_P(DeepTreeStress, ChurnKeepsTreeConsistent)
{
    const StressCase &sc = GetParam();
    DeepFixture f(sc.scheme, sc.l2Size, sc.assoc, sc.chunkSize,
                  sc.blockSize);
    Rng rng(2024);
    std::map<std::uint64_t, std::uint64_t> reference;

    // Mixed hot/cold traffic across regions far apart in the address
    // space (so parent chains barely overlap), under severe set
    // pressure: the recipe that exposed both historical bugs.
    const std::uint64_t regions[] = {0, 64ULL << 20, 1ULL << 30,
                                     2ULL << 30};
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t region =
            regions[rng.below(std::size(regions))];
        const std::uint64_t addr = region + 8 * rng.below(2048);
        if (rng.chance(0.55)) {
            const std::uint64_t v = rng.next();
            f.write64(addr, v);
            reference[addr] = v;
        } else {
            f.readWait(addr);
        }
        if (op % 256 == 0)
            f.drain();
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();

    EXPECT_EQ(f.l2.integrityFailures(), 0u) << sc.name;
    EXPECT_TRUE(f.l2.verifyTreeConsistency()) << sc.name;
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value) << sc.name << " " << addr;
}

INSTANTIATE_TEST_SUITE_P(
    Pressure, DeepTreeStress,
    ::testing::Values(
        // Tiny direct-mapped-ish caches maximise cascade depth.
        StressCase{Scheme::kCached, 2048, 2, 64, 64, "c_tiny"},
        StressCase{Scheme::kCached, 4096, 4, 64, 64, "c_small"},
        StressCase{Scheme::kCached, 4096, 4, 128, 64, "m_small"},
        StressCase{Scheme::kIncremental, 2048, 2, 64, 64, "i_tiny"},
        StressCase{Scheme::kIncremental, 4096, 4, 128, 64, "i_small"},
        StressCase{Scheme::kNaive, 2048, 2, 64, 64, "naive_tiny"}),
    [](const ::testing::TestParamInfo<StressCase> &info) {
        return info.param.name;
    });

TEST(DeepTreeStressTest, WriteHeavySingleSetPingPong)
{
    // Everything lands in very few sets: parent-slot allocations
    // constantly displace data lines of chunks mid-writeback.
    DeepFixture f(Scheme::kCached, 1024, 2); // 8 sets x 2 ways
    Rng rng(7);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 2000; ++op) {
        const std::uint64_t addr = 8 * rng.below(512);
        const std::uint64_t v = rng.next();
        f.write64(addr, v);
        reference[addr] = v;
        if (op % 128 == 0)
            f.drain();
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value);
}

TEST(DeepTreeStressTest, IncrementalPingPongWithTwoBlockChunks)
{
    // The exact shape of the historical i-scheme bug: sibling blocks
    // of one chunk alternately dirtied and displaced so parent MAC
    // updates race with each other.
    DeepFixture f(Scheme::kIncremental, 1024, 2, 128, 64);
    Rng rng(8);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 2000; ++op) {
        // Two interleaved regions mapping onto the same sets.
        const std::uint64_t addr =
            (op % 2 ? 0 : 1024) + 8 * rng.below(128);
        const std::uint64_t v = rng.next();
        f.write64(addr, v);
        reference[addr] = v;
        if (op % 64 == 0)
            f.drain();
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value);
}

} // namespace
} // namespace cmt
