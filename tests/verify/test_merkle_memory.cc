/** @file Functional MerkleMemory tests across schemes and modes. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/backing_store.h"
#include "support/random.h"
#include "tree/layout.h"
#include "verify/adversary.h"
#include "verify/merkle_memory.h"

namespace cmt
{
namespace
{

struct ModeParam
{
    Authenticator::Kind auth;
    // gtest prints a parameter without a PrintTo overload as its raw
    // bytes, and gtest_discover_tests puts that print into each ctest
    // name. Spell out the slot the compiler would otherwise pad, so no
    // uninitialised byte lands in a name; only the trailing `name`
    // pointer still moves with the address-space layout.
    std::uint32_t zero;
    std::size_t cacheChunks; // 0 = naive
    const char *name;
};

MerkleConfig
configFor(const ModeParam &p, std::uint64_t protected_size = 8192)
{
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.blockSize = 64;
    cfg.protectedSize = protected_size;
    cfg.auth = p.auth;
    cfg.cacheChunks = p.cacheChunks;
    cfg.key.fill(0x5c);
    return cfg;
}

class MerkleModes : public ::testing::TestWithParam<ModeParam>
{
};

TEST_P(MerkleModes, StoreLoadRoundTrip)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));

    const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
    mm.store(100, data);
    std::vector<std::uint8_t> out(data.size());
    mm.load(100, out);
    EXPECT_EQ(out, data);
}

TEST_P(MerkleModes, FreshMemoryLoadsZero)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    std::vector<std::uint8_t> out(32, 0xff);
    mm.load(4000, out);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST_P(MerkleModes, Scalar64RoundTrip)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    mm.store64(8, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mm.load64(8), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mm.load64(0), 0u);
}

TEST_P(MerkleModes, CrossChunkStoreLoad)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    std::vector<std::uint8_t> data(200);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    mm.store(60, data); // spans 4 chunks
    std::vector<std::uint8_t> out(200);
    mm.load(60, out);
    EXPECT_EQ(out, data);
}

TEST_P(MerkleModes, OverwriteVisible)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    mm.store64(16, 111);
    mm.store64(16, 222);
    EXPECT_EQ(mm.load64(16), 222u);
}

TEST_P(MerkleModes, FlushThenVerifyAllPasses)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    Rng rng(10);
    for (int i = 0; i < 200; ++i)
        mm.store64(8 * rng.below(1024), rng.next());
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

TEST_P(MerkleModes, DetectsDataTamper)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    mm.store64(512, 42);
    mm.flush();
    mm.clearCache();

    Adversary adv(mm.ram());
    adv.flipBit(mm.layout().dataToRam(512), 0);

    std::uint8_t buf[8];
    EXPECT_THROW(mm.load(512, buf), IntegrityException);
}

TEST_P(MerkleModes, DetectsHashChunkTamper)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    mm.store64(512, 42);
    mm.flush();
    mm.clearCache();

    // Corrupt the leaf's parent hash chunk in RAM.
    const std::uint64_t leaf =
        mm.layout().chunkOf(mm.layout().dataToRam(512));
    const auto parent =
        static_cast<std::uint64_t>(mm.layout().parentOf(leaf));
    Adversary adv(mm.ram());
    adv.flipBit(mm.layout().slotAddr(parent,
                                     mm.layout().slotIndexOf(leaf)),
                3);

    std::uint8_t buf[8];
    EXPECT_THROW(mm.load(512, buf), IntegrityException);
}

TEST_P(MerkleModes, DetectsReplayOfStaleData)
{
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    Adversary adv(mm.ram());

    mm.store64(256, 1); // version 1
    mm.flush();
    const std::uint64_t ram_addr =
        mm.layout().chunkAddr(mm.layout().chunkOf(
            mm.layout().dataToRam(256)));
    const auto stale = adv.capture(ram_addr, 64);

    mm.store64(256, 2); // version 2
    mm.flush();
    mm.clearCache();

    adv.replay(ram_addr, stale); // roll the data chunk back

    std::uint8_t buf[8];
    EXPECT_THROW(mm.load(256, buf), IntegrityException)
        << "freshness must be enforced: stale-but-authentic data is "
           "rejected";
}

TEST_P(MerkleModes, DetectsRelocationOfValidChunk)
{
    // Copying a valid chunk to a different address must fail: the
    // tree binds position, not just content.
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam()));
    Adversary adv(mm.ram());

    mm.store64(0, 1111);
    mm.store64(64, 2222);
    mm.flush();
    mm.clearCache();

    const std::uint64_t src =
        mm.layout().chunkAddr(mm.layout().chunkOf(mm.layout().dataToRam(0)));
    const std::uint64_t dst =
        mm.layout().chunkAddr(mm.layout().chunkOf(mm.layout().dataToRam(64)));
    adv.replay(dst, adv.capture(src, 64));

    std::uint8_t buf[8];
    EXPECT_THROW(mm.load(64, buf), IntegrityException);
}

TEST_P(MerkleModes, RandomisedAgainstReferenceMap)
{
    // Property: under arbitrary interleavings of stores, loads,
    // flushes and cache clears, MerkleMemory behaves like a flat
    // byte map (with no adversary present).
    BackingStore ram;
    MerkleMemory mm(ram, configFor(GetParam(), 16384));
    std::map<std::uint64_t, std::uint8_t> reference;
    Rng rng(1234);

    for (int op = 0; op < 600; ++op) {
        const double dice = rng.real();
        if (dice < 0.45) {
            const std::uint64_t addr = rng.below(16384 - 32);
            std::vector<std::uint8_t> data(1 + rng.below(32));
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            mm.store(addr, data);
            for (std::size_t i = 0; i < data.size(); ++i)
                reference[addr + i] = data[i];
        } else if (dice < 0.9) {
            const std::uint64_t addr = rng.below(16384 - 32);
            std::vector<std::uint8_t> got(1 + rng.below(32));
            mm.load(addr, got);
            for (std::size_t i = 0; i < got.size(); ++i) {
                const auto it = reference.find(addr + i);
                const std::uint8_t want =
                    it == reference.end() ? 0 : it->second;
                ASSERT_EQ(got[i], want)
                    << "op " << op << " addr " << addr + i;
            }
        } else if (dice < 0.97) {
            mm.flush();
        } else {
            mm.clearCache();
        }
    }
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

TEST_P(MerkleModes, RandomTamperAlwaysDetected)
{
    // Property: after a consistent flush, flipping any single bit of
    // any touched RAM byte (data or hash) breaks verifyAll.
    BackingStore ram;
    MerkleConfig cfg = configFor(GetParam());
    Rng rng(77);

    for (int trial = 0; trial < 12; ++trial) {
        BackingStore fresh;
        MerkleMemory mm(fresh, cfg);
        for (int i = 0; i < 50; ++i)
            mm.store64(8 * rng.below(1024), rng.next());
        mm.flush();
        ASSERT_TRUE(mm.verifyAll());

        // Flip a random bit inside the data region of a chunk that
        // was certainly written, then check detection and recovery.
        const std::uint64_t victim_addr =
            mm.layout().dataToRam(8 * rng.below(1024));
        Adversary adv(mm.ram());
        const auto before = adv.capture(victim_addr, 8);
        adv.flipBit(victim_addr + rng.below(8), rng.below(8));
        mm.clearCache();
        EXPECT_FALSE(mm.verifyAll()) << "trial " << trial;
        adv.replay(victim_addr, before);
        EXPECT_TRUE(mm.verifyAll());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MerkleModes,
    ::testing::Values(
        ModeParam{Authenticator::Kind::kMd5, 0, 0, "naive_md5"},
        ModeParam{Authenticator::Kind::kMd5, 0, 64, "cached_md5"},
        ModeParam{Authenticator::Kind::kSha1Trunc, 0, 64, "cached_sha1"},
        ModeParam{Authenticator::Kind::kXorMac, 0, 0, "naive_xormac"},
        ModeParam{Authenticator::Kind::kXorMac, 0, 64, "cached_xormac"}),
    [](const ::testing::TestParamInfo<ModeParam> &info) {
        return info.param.name;
    });

TEST(MerkleMemoryTest, NaiveAndCachedProduceSameRamImage)
{
    // The RAM image after a flush is scheme-defined, not an artefact
    // of caching: naive and cached runs of the same trace converge.
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 8192;
    cfg.auth = Authenticator::Kind::kMd5;

    BackingStore ram_naive, ram_cached;
    cfg.cacheChunks = 0;
    MerkleMemory naive(ram_naive, cfg);
    cfg.cacheChunks = 32;
    MerkleMemory cached(ram_cached, cfg);

    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t addr = 8 * rng.below(1024);
        const std::uint64_t value = rng.next();
        naive.store64(addr, value);
        cached.store64(addr, value);
    }
    cached.flush();

    // Compare every touched RAM chunk byte-for-byte.
    for (std::uint64_t c = 0; c < naive.layout().totalChunks(); ++c) {
        std::vector<std::uint8_t> a(64), b(64);
        ram_naive.read(c * 64, a);
        ram_cached.read(c * 64, b);
        // Cached mode may not have materialised chunks it never wrote
        // back, but the flush forces dirty state out; compare data
        // chunks and any hash chunk present in the naive image.
        if (a != b) {
            // Only acceptable difference: cached never materialised
            // the chunk (all zeros) because it was never touched.
            bool b_zero = true;
            for (auto byte : b)
                b_zero &= (byte == 0);
            EXPECT_TRUE(false) << "chunk " << c << " diverges"
                               << (b_zero ? " (unmaterialised)" : "");
        }
    }
}

TEST(MerkleMemoryTest, CachedModeVerifiesLessThanNaive)
{
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 65536;
    cfg.auth = Authenticator::Kind::kMd5;

    BackingStore ram_naive, ram_cached;
    cfg.cacheChunks = 0;
    MerkleMemory naive(ram_naive, cfg);
    cfg.cacheChunks = 128;
    MerkleMemory cached(ram_cached, cfg);

    // A hot loop over a small working set.
    for (int pass = 0; pass < 10; ++pass) {
        for (std::uint64_t addr = 0; addr < 2048; addr += 8) {
            naive.store64(addr, pass + addr);
            cached.store64(addr, pass + addr);
        }
    }

    EXPECT_GT(naive.statUntrustedReads.value(),
              20 * cached.statUntrustedReads.value())
        << "caching is the whole point: hot-path verification cost "
           "must collapse";
}

TEST(MerkleMemoryTest, DmaThenRebuildRestoresProtection)
{
    BackingStore ram;
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 8192;
    cfg.cacheChunks = 32;
    MerkleMemory mm(ram, cfg);

    mm.store64(0, 7); // establish some protected state

    // Device DMAs 256 bytes into [1024, 1280) without tree updates.
    std::vector<std::uint8_t> incoming(256);
    for (std::size_t i = 0; i < incoming.size(); ++i)
        incoming[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    mm.dmaWrite(1024, incoming);

    // Reading before rebuild must fail: the data has untrusted origin.
    std::uint8_t buf[8];
    EXPECT_THROW(mm.load(1024, buf), IntegrityException);

    // After rebuild the data is protected and readable.
    mm.rebuild(1024, 256);
    std::vector<std::uint8_t> out(256);
    mm.load(1024, out);
    EXPECT_EQ(out, incoming);
    EXPECT_EQ(mm.load64(0), 7u) << "other state undisturbed";
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

TEST(MerkleMemoryTest, TinyCacheStressStaysCorrect)
{
    BackingStore ram;
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 65536; // levels=8? (arity 4: 4^8=64Ki chunks..)
    cfg.cacheChunks = 2 * TreeLayout(64, 65536).levels() + 2;
    MerkleMemory mm(ram, cfg);

    Rng rng(321);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t addr = 8 * rng.below(8192);
        if (rng.chance(0.5)) {
            const std::uint64_t v = rng.next();
            mm.store64(addr, v);
            reference[addr] = v;
        } else {
            const auto it = reference.find(addr);
            EXPECT_EQ(mm.load64(addr),
                      it == reference.end() ? 0 : it->second);
        }
    }
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

TEST(MerkleMemoryTest, ExceptionCarriesFailingChunk)
{
    BackingStore ram;
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 8192;
    cfg.cacheChunks = 0;
    MerkleMemory mm(ram, cfg);
    mm.store64(512, 1);

    const std::uint64_t leaf =
        mm.layout().chunkOf(mm.layout().dataToRam(512));
    Adversary adv(mm.ram());
    adv.flipBit(mm.layout().chunkAddr(leaf), 5);

    try {
        std::uint8_t buf[8];
        mm.load(512, buf);
        FAIL() << "tamper went undetected";
    } catch (const IntegrityException &e) {
        EXPECT_EQ(e.chunk(), leaf);
    }
}

TEST(MerkleMemoryTest, FuzzWithDmaAndRebuildInterleaved)
{
    // Property: arbitrary interleavings of verified stores/loads,
    // DMA writes + rebuilds, flushes and cache clears behave like a
    // flat byte map, and the tree ends consistent.
    BackingStore ram;
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 32768;
    cfg.cacheChunks = 48;
    MerkleMemory mm(ram, cfg);
    std::map<std::uint64_t, std::uint8_t> reference;
    Rng rng(20240706);

    for (int op = 0; op < 800; ++op) {
        const double dice = rng.real();
        if (dice < 0.40) {
            const std::uint64_t addr = 8 * rng.below(4096 - 8);
            std::uint8_t data[8];
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            mm.store(addr, data);
            for (int i = 0; i < 8; ++i)
                reference[addr + i] = data[i];
        } else if (dice < 0.80) {
            const std::uint64_t addr = 8 * rng.below(4096 - 8);
            std::uint8_t got[8];
            mm.load(addr, got);
            for (int i = 0; i < 8; ++i) {
                const auto it = reference.find(addr + i);
                ASSERT_EQ(got[i],
                          it == reference.end() ? 0 : it->second)
                    << "op " << op;
            }
        } else if (dice < 0.90) {
            // DMA whole chunks, then immediately rebuild them.
            // (Unaligned DMA over a chunk with dirty cached state
            // legitimately discards the cached bytes - the paper says
            // DMA targets must be treated as unprotected - so the
            // flat reference model only holds for aligned DMA; the
            // unaligned case is covered separately.)
            const std::uint64_t addr =
                64 * rng.below(cfg.protectedSize / 64 - 4);
            std::vector<std::uint8_t> buf(64 * (1 + rng.below(3)));
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng.next());
            mm.dmaWrite(addr, buf);
            mm.rebuild(addr, buf.size());
            for (std::size_t i = 0; i < buf.size(); ++i)
                reference[addr + i] = buf[i];
        } else if (dice < 0.97) {
            mm.flush();
        } else {
            mm.clearCache();
        }
    }
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

TEST(MerkleMemoryTest, TimestampFreeVariantStillDetectsPlainTamper)
{
    // Without timestamps the incremental MAC is open to the 5.5
    // attacks, but ordinary corruption must still be caught.
    BackingStore ram;
    MerkleConfig cfg;
    cfg.chunkSize = 128;
    cfg.blockSize = 64;
    cfg.protectedSize = 8192;
    cfg.auth = Authenticator::Kind::kXorMac;
    cfg.timestamps = false;
    cfg.cacheChunks = 0;
    MerkleMemory mm(ram, cfg);

    mm.store64(0x100, 7);
    Adversary adv(mm.ram());
    adv.flipBit(mm.layout().dataToRam(0x100), 2);
    EXPECT_THROW(mm.load64(0x100), IntegrityException);
}

TEST(MerkleMemoryTest, RebuildRangeValidation)
{
    BackingStore ram;
    MerkleConfig cfg;
    cfg.chunkSize = 64;
    cfg.protectedSize = 8192;
    cfg.cacheChunks = 32;
    MerkleMemory mm(ram, cfg);
    // Rebuild across a chunk boundary with unaligned edges.
    std::vector<std::uint8_t> buf(100, 0x5a);
    mm.dmaWrite(60, buf);
    mm.rebuild(60, buf.size());
    std::vector<std::uint8_t> got(100);
    mm.load(60, got);
    EXPECT_EQ(got, buf);
}

TEST(MerkleMemoryTest, ShardingShortensWalksOneLevelPerArityFactor)
{
    // Naive mode: a verified load reads its data chunk and every hash
    // ancestor up to the shard's root registers, i.e. levels() chunks
    // of the per-shard layout. Each shard covers 1/K of the region,
    // rounded up to a full m-ary tree, so K = 2 keeps the depth of
    // K = 1 and the walk shortens by one level per factor of m.
    constexpr std::uint64_t kRegion = 16 << 20;
    constexpr std::uint64_t kChunk = 64;
    const TreeLayout single(kChunk, kRegion);
    const std::uint64_t m = single.arity();
    for (const unsigned shards : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE("K = " + std::to_string(shards));
        BackingStore ram;
        MerkleConfig cfg;
        cfg.chunkSize = kChunk;
        cfg.protectedSize = kRegion;
        cfg.cacheChunks = 0;
        cfg.shards = shards;
        MerkleMemory mm(ram, cfg);

        unsigned levels_saved = 0;
        for (std::uint64_t k = m; k <= shards; k *= m)
            ++levels_saved;
        const unsigned depth = mm.layout().levels();
        EXPECT_EQ(depth, TreeLayout(kChunk, kRegion / shards).levels());
        EXPECT_EQ(depth, single.levels() - levels_saved);

        Rng rng(shards);
        constexpr std::uint64_t kLoads = 256;
        const std::uint64_t before = mm.statUntrustedReads.value();
        for (std::uint64_t i = 0; i < kLoads; ++i)
            (void)mm.load64(8 * rng.below(mm.size() / 8));
        EXPECT_EQ(mm.statUntrustedReads.value() - before, kLoads * depth);
    }
}

} // namespace
} // namespace cmt
