/**
 * @file
 * L2Controller integration tests: every scheme, driven through the full
 * bus/DRAM/hash-engine stack, checked for functional correctness,
 * tamper detection, and the timing properties the paper relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/backing_store.h"
#include "support/random.h"
#include "tree/l2_controller.h"
#include "verify/adversary.h"

namespace cmt
{
namespace
{

struct L2Fixture
{
    explicit L2Fixture(Scheme scheme, std::uint64_t l2_size = 4096,
                       std::uint64_t chunk_size = 64,
                       unsigned block_size = 64,
                       unsigned buffers = 16,
                       bool speculative = true)
        : tree(chunk_size, 1 << 16, 1, buffers, buffers),
          auth(scheme == Scheme::kIncremental
                   ? Authenticator::Kind::kXorMac
                   : Authenticator::Kind::kMd5,
               key(), block_size),
          ram(base, tree, auth),
          mem(events, ram, MemTimingParams{}, stats),
          hasher(events, HashEngineParams{}, stats),
          l2(events, mem, ram, hasher, tree, auth,
             makeParams(scheme, l2_size, chunk_size, block_size,
                        buffers, speculative),
             stats)
    {}

    static Key128
    key()
    {
        Key128 k;
        k.fill(0x21);
        return k;
    }

    static L2Params
    makeParams(Scheme scheme, std::uint64_t l2_size,
               std::uint64_t chunk_size, unsigned block_size,
               unsigned buffers, bool speculative)
    {
        L2Params p;
        p.scheme = scheme;
        p.sizeBytes = l2_size;
        p.assoc = 4;
        p.blockSize = block_size;
        p.chunkSize = chunk_size;
        p.protectedSize = 1 << 16;
        p.readBufferEntries = buffers;
        p.writeBufferEntries = buffers;
        p.authKind = scheme == Scheme::kIncremental
                         ? Authenticator::Kind::kXorMac
                         : Authenticator::Kind::kMd5;
        p.speculativeChecks = speculative;
        p.key = key();
        return p;
    }

    /** Run the event queue dry. */
    void
    drain()
    {
        while (!events.empty())
            events.runUntil(events.nextEventTime());
    }

    /** Blocking read; returns the completion cycle. */
    Cycle
    readWait(std::uint64_t addr, unsigned size = 8)
    {
        bool done = false;
        Cycle when = 0;
        l2.read(addr, size, [&] {
            done = true;
            when = events.now();
        });
        while (!done) {
            ASSERT_FALSE_OR_DIE(!events.empty());
            events.runUntil(events.nextEventTime());
        }
        return when;
    }

    static void ASSERT_FALSE_OR_DIE(bool cond)
    {
        if (!cond)
            cmt_panic("event queue ran dry with a read outstanding");
    }

    void
    write64(std::uint64_t addr, std::uint64_t value)
    {
        std::uint8_t buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
        l2.write(addr, buf);
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

class L2ControllerSchemes : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(L2ControllerSchemes, ColdMissThenHit)
{
    L2Fixture f(GetParam());
    f.readWait(0x100);
    f.drain();
    EXPECT_EQ(f.l2.stat_readMisses.value(), 1u);

    const Cycle before = f.events.now();
    f.readWait(0x100);
    EXPECT_EQ(f.l2.stat_readHits.value(), 1u);
    EXPECT_EQ(f.events.now() - before, 10u) << "hit latency";
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
}

TEST_P(L2ControllerSchemes, WriteReadBack)
{
    L2Fixture f(GetParam());
    f.write64(0x40, 0xfeedfacecafebeefULL);
    f.readWait(0x40);
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    EXPECT_EQ(f.ramData64(0x40), 0xfeedfacecafebeefULL);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
}

TEST_P(L2ControllerSchemes, EvictionPressureMatchesReference)
{
    // 4 KB L2 under a 32 KB working set: constant evictions and
    // refills; behaviour must match a flat reference map and the
    // tree must stay consistent throughout.
    L2Fixture f(GetParam());
    Rng rng(7);
    std::map<std::uint64_t, std::uint64_t> reference;

    for (int op = 0; op < 1200; ++op) {
        const std::uint64_t addr = 8 * rng.below(4096);
        if (rng.chance(0.6)) {
            const std::uint64_t v = rng.next();
            f.write64(addr, v);
            reference[addr] = v;
        } else {
            f.readWait(addr);
        }
        if (op % 64 == 0)
            f.drain();
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();

    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value) << "addr " << addr;
}

TEST_P(L2ControllerSchemes, TinyBuffersStillCorrect)
{
    if (GetParam() == Scheme::kBase)
        GTEST_SKIP() << "base has no hash buffers";
    L2Fixture f(GetParam(), 4096, 64, 64, /*buffers=*/1);
    Rng rng(9);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 400; ++op) {
        const std::uint64_t addr = 8 * rng.below(4096);
        if (rng.chance(0.5)) {
            const std::uint64_t v = rng.next();
            f.write64(addr, v);
            reference[addr] = v;
        } else {
            f.readWait(addr);
        }
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value);
}

TEST_P(L2ControllerSchemes, TamperingIsDetected)
{
    if (GetParam() == Scheme::kBase)
        GTEST_SKIP() << "base cannot detect anything";

    L2Fixture f(GetParam());
    f.write64(0x200, 42);
    f.drain();
    f.l2.flushAllDirty();
    f.drain();

    // Evict the victim line by thrashing its set (4 KB, 4-way: 16
    // sets x 64 B -> conflicting addresses stride 1 KB).
    for (int i = 1; i <= 8; ++i)
        f.readWait(0x200 + i * 1024);
    f.drain();

    // Flip a bit of the data in RAM.
    Adversary(f.ram).flipBit(f.layout.dataToRam(0x200), 0);

    f.readWait(0x200);
    f.drain();
    EXPECT_GT(f.l2.integrityFailures(), 0u);
}

TEST_P(L2ControllerSchemes, ReplayIsDetected)
{
    if (GetParam() == Scheme::kBase)
        GTEST_SKIP();

    L2Fixture f(GetParam());
    const std::uint64_t ram_addr = f.layout.dataToRam(0x200);

    f.write64(0x200, 1);
    f.l2.flushAllDirty();
    f.drain();
    const std::vector<std::uint8_t> stale =
        Adversary(f.ram).capture(ram_addr, 64);

    f.write64(0x200, 2);
    f.l2.flushAllDirty();
    f.drain();

    // Evict, then roll RAM back to the stale snapshot.
    for (int i = 1; i <= 8; ++i)
        f.readWait(0x200 + i * 1024);
    f.drain();
    f.ram.write(ram_addr, stale);

    f.readWait(0x200);
    f.drain();
    EXPECT_GT(f.l2.integrityFailures(), 0u)
        << "stale-but-authentic data must fail freshness";
}

// The audit must reject a tree it did not build: after a flush, one
// flipped byte of a touched data chunk, or of a touched hash chunk,
// no longer matches its parent's slot or root register. The cached
// scheme runs as c (64 B chunks) and as m (128 B chunks).
TEST_P(L2ControllerSchemes, AuditRejectsAFlippedByte)
{
    if (GetParam() == Scheme::kBase)
        GTEST_SKIP() << "base keeps no tree to audit";
    std::vector<std::uint64_t> chunk_sizes{64};
    if (GetParam() == Scheme::kCached)
        chunk_sizes.push_back(128);
    for (const std::uint64_t chunk_size : chunk_sizes) {
        for (const bool hash_chunk : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "chunk " << chunk_size
                         << (hash_chunk ? ", hash chunk" : ", data chunk"));
            L2Fixture f(GetParam(), 4096, chunk_size);
            f.write64(0x200, 42);
            f.drain();
            f.l2.flushAllDirty();
            f.drain();
            ASSERT_TRUE(f.l2.verifyTreeConsistency());

            const std::vector<std::uint64_t> touched =
                f.ram.touchedChunks();
            const auto target = std::find_if(
                touched.begin(), touched.end(), [&](std::uint64_t c) {
                    return f.layout.isHashChunk(c) == hash_chunk;
                });
            ASSERT_NE(target, touched.end());
            Storage &raw = f.ram;
            const std::uint64_t addr = f.layout.chunkAddr(*target) + 5;
            std::uint8_t byte = 0;
            raw.read(addr, {&byte, 1});
            byte ^= 0x10;
            raw.write(addr, {&byte, 1});
            EXPECT_FALSE(f.l2.verifyTreeConsistency());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, L2ControllerSchemes,
    ::testing::Values(Scheme::kBase, Scheme::kNaive, Scheme::kCached,
                      Scheme::kIncremental),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        return schemeName(info.param);
    });

TEST(L2ControllerTest, NaiveReadsWholeAncestorPathPerMiss)
{
    L2Fixture f(Scheme::kNaive);
    const unsigned depth = f.layout.ancestorDepth();
    f.readWait(0x1000);
    f.drain();
    EXPECT_EQ(f.mem.stat_reads.value(), 1u + depth)
        << "naive: block + every ancestor hash chunk";
    // A second miss to a *different* block repeats the whole path.
    f.readWait(0x8000);
    f.drain();
    EXPECT_EQ(f.mem.stat_reads.value(), 2u * (1u + depth));
}

TEST(L2ControllerTest, CachedSchemeAmortisesHashFetches)
{
    L2Fixture f(Scheme::kCached);
    const unsigned depth = f.layout.ancestorDepth();
    f.readWait(0x1000);
    f.drain();
    EXPECT_EQ(f.mem.stat_reads.value(), 1u + depth)
        << "first-ever miss pays the full path once";
    // A neighbouring block shares the whole (now cached) path.
    f.readWait(0x1000 + 64);
    f.drain();
    EXPECT_EQ(f.mem.stat_reads.value(), 1u + depth + 1u)
        << "second miss pays exactly one block read";
}

TEST(L2ControllerTest, BaseSchemeReadsExactlyOneBlock)
{
    L2Fixture f(Scheme::kBase);
    f.readWait(0x1000);
    f.drain();
    EXPECT_EQ(f.mem.stat_reads.value(), 1u);
    EXPECT_EQ(f.l2.stat_integrityBlockReads.value(), 0u);
}

TEST(L2ControllerTest, SpeculationHidesCheckLatency)
{
    L2Fixture spec(Scheme::kCached, 4096, 64, 64, 16, true);
    L2Fixture block(Scheme::kCached, 4096, 64, 64, 16, false);
    Cycle t_spec = 0, t_block = 0;
    {
        bool done = false;
        spec.l2.read(0x1000, 8, [&] {
            done = true;
            t_spec = spec.events.now();
        });
        while (!done)
            spec.events.runUntil(spec.events.nextEventTime());
    }
    {
        bool done = false;
        block.l2.read(0x1000, 8, [&] {
            done = true;
            t_block = block.events.now();
        });
        while (!done)
            block.events.runUntil(block.events.nextEventTime());
    }
    EXPECT_LT(t_spec, t_block)
        << "Section 5.8: speculative use of unchecked data must beat "
           "waiting for the check";
}

TEST(L2ControllerTest, BufferStallsAreCountedUnderPressure)
{
    L2Fixture f(Scheme::kCached, 4096, 64, 64, /*buffers=*/1);
    // Burst of independent misses with a single buffer entry.
    int completed = 0;
    for (int i = 0; i < 8; ++i)
        f.l2.read(0x1000 + i * 2048, 8, [&] { ++completed; });
    f.drain();
    EXPECT_EQ(completed, 8);
    EXPECT_GT(f.l2.stat_bufferStallEvents.value(), 0u);
}

TEST(L2ControllerTest, BackInvalidateFiresOnDataEviction)
{
    L2Fixture f(Scheme::kCached);
    std::vector<std::uint64_t> invalidated;
    f.l2.onBackInvalidate = [&](std::uint64_t addr, unsigned) {
        invalidated.push_back(addr);
    };
    // Fill one set beyond capacity with clean data blocks.
    for (int i = 0; i <= 8; ++i)
        f.readWait(0x200 + i * 1024);
    f.drain();
    EXPECT_FALSE(invalidated.empty());
}

TEST(L2ControllerTest, PartialStoreAllocateAndMerge)
{
    // Store 8 bytes into a cold block (no fetch), force the partial
    // dirty line out, then read the whole block back: the stored
    // words and the (zero) background must both be intact.
    L2Fixture f(Scheme::kCached);
    f.write64(0x200 + 16, 0x1122334455667788ULL);
    EXPECT_EQ(f.mem.stat_reads.value(), 0u)
        << "write-allocate must not fetch";

    for (int i = 1; i <= 8; ++i)
        f.readWait(0x200 + i * 1024);
    f.drain();

    f.readWait(0x200 + 16);
    f.readWait(0x200); // untouched word of the same block
    f.drain();
    EXPECT_EQ(f.ramData64(0x200 + 16), 0x1122334455667788ULL);
    EXPECT_EQ(f.ramData64(0x200), 0u);
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
}

TEST(L2ControllerTest, WriteAllocFetchAblation)
{
    // With the Section 5.3 optimisation disabled, a store miss
    // fetches and checks the chunk before the write lands.
    L2Fixture f(Scheme::kCached);
    L2Fixture g(Scheme::kCached);
    // Patch g to classic write-allocate.
    L2Params p = L2Fixture::makeParams(Scheme::kCached, 4096, 64,
                                             64, 16, true);
    p.writeAllocNoFetch = false;
    // Own router: root registers and verify buffers belong to one
    // controller, so a second controller needs its own set.
    ShardRouter classic_tree(64, 1 << 16);
    L2Controller classic(g.events, g.mem, g.ram, g.hasher, classic_tree,
                         g.auth, p, g.stats);

    f.write64(0x200, 7);
    f.drain();
    EXPECT_EQ(f.mem.stat_reads.value(), 0u);

    std::uint8_t buf[8] = {7};
    classic.write(0x200, buf);
    g.drain();
    EXPECT_GT(g.mem.stat_reads.value(), 0u)
        << "classic write-allocate fetches on a store miss";
}

TEST(L2ControllerTest, MSchemeChunkSpansTwoBlocks)
{
    // m scheme: 128-byte chunks over 64-byte blocks.
    L2Fixture f(Scheme::kCached, 4096, /*chunk=*/128, /*block=*/64);
    Rng rng(3);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 600; ++op) {
        const std::uint64_t addr = 8 * rng.below(2048);
        if (rng.chance(0.6)) {
            const std::uint64_t v = rng.next();
            f.write64(addr, v);
            reference[addr] = v;
        } else {
            f.readWait(addr);
        }
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value);
}

TEST(L2ControllerTest, ISchemeChunkSpansTwoBlocks)
{
    L2Fixture f(Scheme::kIncremental, 4096, /*chunk=*/128,
                /*block=*/64);
    Rng rng(4);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 600; ++op) {
        const std::uint64_t addr = 8 * rng.below(2048);
        if (rng.chance(0.6)) {
            const std::uint64_t v = rng.next();
            f.write64(addr, v);
            reference[addr] = v;
        } else {
            f.readWait(addr);
        }
    }
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value);
}

TEST(L2ControllerTest, ISchemeWritesOneBlockPerEviction)
{
    // The point of incremental MACs: a dirty single-block eviction
    // writes blockSize bytes, not chunkSize.
    L2Fixture m(Scheme::kCached, 4096, 128, 64);
    L2Fixture i(Scheme::kIncremental, 4096, 128, 64);

    auto run = [](L2Fixture &f) {
        // Dirty one block per chunk across many chunks, then flush.
        for (int c = 0; c < 32; ++c) {
            std::uint8_t buf[8] = {1};
            f.l2.write(c * 128, buf);
        }
        f.drain();
        f.l2.flushAllDirty();
        f.drain();
    };
    run(m);
    run(i);

    EXPECT_GT(m.mem.stat_bytesRead.value(),
              i.mem.stat_bytesRead.value())
        << "m must fetch chunk-mates at write-back; i must not";
}

TEST(L2ControllerTest, AllSchemesConvergeToSameDataImage)
{
    // The RAM *data region* after identical traffic is scheme
    // independent.
    std::vector<std::unique_ptr<L2Fixture>> fixtures;
    fixtures.push_back(std::make_unique<L2Fixture>(Scheme::kBase));
    fixtures.push_back(std::make_unique<L2Fixture>(Scheme::kNaive));
    fixtures.push_back(std::make_unique<L2Fixture>(Scheme::kCached));
    fixtures.push_back(
        std::make_unique<L2Fixture>(Scheme::kIncremental));

    Rng rng(11);
    for (int op = 0; op < 500; ++op) {
        const std::uint64_t addr = 8 * rng.below(2048);
        const bool is_write = rng.chance(0.6);
        const std::uint64_t v = rng.next();
        for (auto &f : fixtures) {
            if (is_write)
                f->write64(addr, v);
            else
                f->readWait(addr);
        }
    }
    for (auto &f : fixtures) {
        f->drain();
        f->l2.flushAllDirty();
        f->drain();
    }
    for (std::uint64_t addr = 0; addr < 2048 * 8; addr += 8) {
        const std::uint64_t want = fixtures[0]->ramData64(addr);
        for (std::size_t i = 1; i < fixtures.size(); ++i)
            ASSERT_EQ(fixtures[i]->ramData64(addr), want)
                << "addr " << addr << " scheme " << i;
    }
}

TEST(L2ControllerTest, PrivacyExtensionAddsDecryptLatency)
{
    // With off-chip encryption, a demand data miss completes
    // decryptLatency cycles later; hash-chunk fetches are unaffected.
    L2Fixture plain(Scheme::kCached);
    L2Fixture enc(Scheme::kCached);
    L2Params p = L2Fixture::makeParams(Scheme::kCached, 4096, 64,
                                             64, 16, true);
    p.encryptData = true;
    p.decryptLatency = 40;
    ShardRouter enc_tree(64, 1 << 16);
    L2Controller enc_l2(enc.events, enc.mem, enc.ram, enc.hasher,
                        enc_tree, enc.auth, p, enc.stats);

    Cycle t_plain = 0, t_enc = 0;
    {
        bool done = false;
        plain.l2.read(0x1000, 8, [&] {
            done = true;
            t_plain = plain.events.now();
        });
        while (!done)
            plain.events.runUntil(plain.events.nextEventTime());
    }
    {
        bool done = false;
        enc_l2.read(0x1000, 8, [&] {
            done = true;
            t_enc = enc.events.now();
        });
        while (!done)
            enc.events.runUntil(enc.events.nextEventTime());
    }
    EXPECT_EQ(t_enc, t_plain + 40);
}

} // namespace
} // namespace cmt
