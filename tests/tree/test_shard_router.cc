/**
 * @file
 * ShardRouter unit tests: the global address arithmetic must be a
 * total, stable partition of the chunk / RAM / data spaces, degrade
 * to TreeLayout exactly at K = 1, and stay power-of-2-safe for every
 * geometry bitops.h accepts.
 */

#include <gtest/gtest.h>

#include "support/bitops.h"
#include "tree/shard_router.h"

namespace cmt
{
namespace
{

// K = 1 is the paper's machine: every global coordinate must equal
// the bare TreeLayout's, bit for bit.
TEST(ShardRouterTest, SingleShardMatchesTreeLayout)
{
    const TreeLayout layout(64, 1 << 16);
    const ShardRouter router(64, 1 << 16, 1);

    ASSERT_EQ(router.totalChunks(), layout.totalChunks());
    ASSERT_EQ(router.dataBytes(), layout.dataBytes());
    EXPECT_EQ(router.levels(), layout.levels());
    EXPECT_EQ(router.arity(), layout.arity());
    EXPECT_EQ(router.firstDataChunk(), layout.firstDataChunk());

    for (std::uint64_t chunk = 0; chunk < layout.totalChunks();
         ++chunk) {
        EXPECT_EQ(router.parentOf(chunk), layout.parentOf(chunk));
        EXPECT_EQ(router.isHashChunk(chunk), layout.isHashChunk(chunk));
        EXPECT_EQ(router.levelOf(chunk), layout.levelOf(chunk));
        EXPECT_EQ(router.chunkAddr(chunk), layout.chunkAddr(chunk));
        EXPECT_EQ(router.shardOfChunk(chunk), 0u);
        if (layout.parentOf(chunk) >= 0) {
            EXPECT_EQ(router.slotIndexOf(chunk),
                      layout.slotIndexOf(chunk));
        }
    }
    for (std::uint64_t addr = 0; addr < layout.dataBytes();
         addr += 64) {
        EXPECT_EQ(router.dataToRam(addr), layout.dataToRam(addr));
        EXPECT_EQ(router.shardOfData(addr), 0u);
    }
}

// The chunk -> shard mapping is total (every chunk has exactly one
// shard) and each shard owns a contiguous, equal-size span.
TEST(ShardRouterTest, ChunkToShardMappingIsTotalAndStable)
{
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
        ShardRouter router(64, 1 << 18, shards);
        ASSERT_TRUE(isPow2(shards));
        ASSERT_EQ(router.totalChunks(), shards * router.chunkSpan());

        std::vector<std::uint64_t> per_shard(shards, 0);
        for (std::uint64_t chunk = 0; chunk < router.totalChunks();
             ++chunk) {
            const std::uint64_t shard = router.shardOfChunk(chunk);
            ASSERT_LT(shard, shards);
            ++per_shard[shard];
            // Stable: recomputing gives the same answer, and the
            // parent (when any) stays inside the same shard.
            EXPECT_EQ(router.shardOfChunk(chunk), shard);
            const std::int64_t parent = router.parentOf(chunk);
            if (parent >= 0) {
                EXPECT_EQ(router.shardOfChunk(
                              static_cast<std::uint64_t>(parent)),
                          shard);
            }
        }
        for (const std::uint64_t count : per_shard)
            EXPECT_EQ(count, router.chunkSpan()) << shards << " shards";
    }
}

// Data address translation round-trips and respects shard ownership:
// shard s's data lands in shard s's RAM span.
TEST(ShardRouterTest, DataTranslationRoundTripsAcrossShards)
{
    ShardRouter router(64, 1 << 18, 4);
    const std::uint64_t per_shard = router.dataBytes() / 4;
    for (std::uint64_t addr = 0; addr < router.dataBytes();
         addr += 4096 + 8) {
        const std::uint64_t ram = router.dataToRam(addr);
        EXPECT_EQ(router.ramToData(ram), addr);
        EXPECT_EQ(router.shardOfData(addr), addr / per_shard);
        EXPECT_EQ(router.shardOfRam(ram), addr / per_shard);
        EXPECT_EQ(router.shardOfChunk(router.chunkOf(ram)),
                  addr / per_shard);
        EXPECT_FALSE(router.isHashChunk(router.chunkOf(ram)));
    }
}

// Root registers: every root-level chunk of every shard resolves to a
// distinct register; child/parent arithmetic agrees with slotIndexOf.
TEST(ShardRouterTest, RootRegistersArePerShard)
{
    ShardRouter router(64, 1 << 16, 4);
    Slot marker{};
    unsigned roots_seen = 0;
    for (std::uint64_t chunk = 0; chunk < router.totalChunks();
         ++chunk) {
        if (router.parentOf(chunk) >= 0)
            continue;
        marker[0] = static_cast<std::uint8_t>(++roots_seen);
        router.rootOf(chunk) = marker;
        EXPECT_EQ(router.rootOf(chunk)[0], marker[0]);
    }
    EXPECT_EQ(roots_seen, 4 * router.arity());

    // Registers are distinct: the last write to each survives.
    unsigned expect = 0;
    for (std::uint64_t chunk = 0; chunk < router.totalChunks();
         ++chunk) {
        if (router.parentOf(chunk) >= 0)
            continue;
        EXPECT_EQ(router.rootOf(chunk)[0],
                  static_cast<std::uint8_t>(++expect));
    }
}

// Power-of-2 safety: every (chunk size, region, shards) combination
// bitops.h accepts must produce a consistent partition, including the
// degenerate one-chunk-per-shard shapes.
TEST(ShardRouterTest, PowerOfTwoGeometriesAreSafe)
{
    for (const std::uint64_t chunk_size : {32ull, 64ull, 256ull}) {
        for (const unsigned shards : {1u, 2u, 8u}) {
            const std::uint64_t region = 1 << 16;
            ShardRouter router(chunk_size, region, shards);
            ASSERT_TRUE(isPow2(router.chunkSize()));
            EXPECT_GE(router.dataBytes(), region);
            EXPECT_EQ(router.dataBytes() % shards, 0u);
            EXPECT_EQ(router.byteSpan(),
                      router.chunkSpan() * chunk_size);
            // Boundary chunks: last of shard s and first of s+1 must
            // not be related.
            for (unsigned s = 0; s + 1 < shards; ++s) {
                const std::uint64_t last =
                    (s + 1) * router.chunkSpan() - 1;
                const std::int64_t parent = router.parentOf(last);
                if (parent >= 0) {
                    EXPECT_EQ(router.shardOfChunk(
                                  static_cast<std::uint64_t>(parent)),
                              s);
                }
                EXPECT_EQ(router.shardOfChunk(last + 1), s + 1);
            }
        }
    }
}

// Per-shard buffers are independent admission gates.
TEST(ShardRouterTest, BuffersAndPendingChecksArePerShard)
{
    ShardRouter router(64, 1 << 16, 2, /*read=*/1, /*write=*/1);
    EXPECT_TRUE(router.context(0).buffers.available());
    EXPECT_TRUE(router.context(1).buffers.available());
    router.context(0).buffers.acquireRead();
    EXPECT_FALSE(router.context(0).buffers.available());
    EXPECT_TRUE(router.context(1).buffers.available())
        << "shard 1 must still accept work";
    EXPECT_EQ(router.pendingChecks(), 1u);
    router.context(1).buffers.acquireRead();
    EXPECT_FALSE(router.context(0).buffers.available());
    EXPECT_FALSE(router.context(1).buffers.available());
    EXPECT_EQ(router.pendingChecks(), 2u);
    router.context(0).buffers.releaseRead();
    router.context(1).buffers.releaseRead();
    EXPECT_EQ(router.pendingChecks(), 0u);
}

} // namespace
} // namespace cmt
