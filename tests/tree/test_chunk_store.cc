/** @file Lazily-materialising chunk store tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "crypto/md5.h"
#include "mem/backing_store.h"
#include "tree/chunk_store.h"
#include "tree/untrusted.h"

namespace cmt
{
namespace
{

struct Fixture
{
    BackingStore base;
    ShardRouter layout{64, 4096}; // arity 4, 3 levels, 84 chunks
    Key128 key{};
    Authenticator auth{Authenticator::Kind::kMd5, key, 64};
    ChunkStore store{base, layout, auth};
};

TEST(ChunkStoreTest, VirginDataChunkReadsZero)
{
    Fixture f;
    const auto bytes = f.store.readChunk(f.layout.firstDataChunk());
    for (auto b : bytes.forCheck())
        EXPECT_EQ(b, 0);
    EXPECT_EQ(f.base.pageCount(), 0u) << "reads must stay lazy";
}

TEST(ChunkStoreTest, VirginHashChunkHoldsCanonicalSlots)
{
    Fixture f;
    // A virgin level-2 hash chunk holds 4 canonical leaf (level-3)
    // authenticators; a virgin leaf hashes to that value.
    const std::vector<std::uint8_t> zero_leaf(64, 0);
    const Slot leaf_slot = Md5::digest(zero_leaf);
    EXPECT_EQ(f.store.canonicalSlot(3), leaf_slot);

    const std::uint64_t level2_chunk = f.layout.arity(); // first at L2
    const auto bytes = f.store.readChunk(level2_chunk).forCheck();
    for (std::uint64_t s = 0; s < 4; ++s) {
        Slot got;
        std::copy(bytes.begin() + s * 16, bytes.begin() + s * 16 + 16,
                  got.begin());
        EXPECT_EQ(got, leaf_slot) << "slot " << s;
    }
}

TEST(ChunkStoreTest, CanonicalChainIsSelfConsistent)
{
    Fixture f;
    // Hash of a virgin level-k chunk must equal canonicalSlot(k).
    for (unsigned level = 1; level <= f.layout.levels(); ++level) {
        // Find some chunk at this level.
        std::uint64_t chunk = 0;
        while (f.layout.levelOf(chunk) != level)
            ++chunk;
        const auto bytes = f.store.readChunk(chunk);
        EXPECT_EQ(Md5::digest(bytes.forCheck()), f.store.canonicalSlot(level))
            << "level " << level;
    }
}

TEST(ChunkStoreTest, WriteMaterialisesAndPersists)
{
    Fixture f;
    const std::uint64_t chunk = f.layout.firstDataChunk() + 3;
    const std::uint64_t addr = f.layout.chunkAddr(chunk) + 10;
    const std::vector<std::uint8_t> data{9, 8, 7};
    EXPECT_FALSE(f.store.touched(chunk));
    f.store.write(addr, data);
    EXPECT_TRUE(f.store.touched(chunk));

    Untrusted<std::vector<std::uint8_t>> out;
    f.store.readRange(addr, 3, out);
    EXPECT_EQ(out.forCheck(), data);

    // The rest of the chunk materialised as its canonical zeros.
    f.store.readRange(f.layout.chunkAddr(chunk), 1, out);
    EXPECT_EQ(out.forCheck(), std::vector<std::uint8_t>{0});
}

TEST(ChunkStoreTest, PartialWriteToHashChunkKeepsCanonicalRest)
{
    Fixture f;
    const std::uint64_t chunk = 1; // level-1 hash chunk
    const Slot value{0xde, 0xad};
    f.store.writeSlot(chunk, 2, value);
    EXPECT_EQ(f.store.readSlot(chunk, 2).forCheck(), value);
    // Untouched slots keep the canonical level-2 authenticator.
    EXPECT_EQ(f.store.readSlot(chunk, 0).forCheck(),
              f.store.canonicalSlot(2));
}

TEST(ChunkStoreTest, CrossChunkAccess)
{
    Fixture f;
    const std::uint64_t chunk = f.layout.firstDataChunk();
    const std::uint64_t addr = f.layout.chunkAddr(chunk) + 60;
    const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
    f.store.write(addr, data);
    EXPECT_TRUE(f.store.touched(chunk));
    EXPECT_TRUE(f.store.touched(chunk + 1));
    Untrusted<std::vector<std::uint8_t>> out;
    f.store.readRange(addr, 8, out);
    EXPECT_EQ(out.forCheck(), data);
}

TEST(ChunkStoreTest, XorMacCanonicalSlotsVerify)
{
    BackingStore base;
    ShardRouter layout(64, 4096);
    Key128 key;
    key.fill(3);
    Authenticator auth(Authenticator::Kind::kXorMac, key, 64);
    ChunkStore store(base, layout, auth);

    for (unsigned level = 1; level <= layout.levels(); ++level) {
        std::uint64_t chunk = 0;
        while (layout.levelOf(chunk) != level)
            ++chunk;
        const auto bytes = store.readChunk(chunk);
        EXPECT_TRUE(
            auth.verify(bytes.forCheck(), store.canonicalSlot(level)))
            << "level " << level;
    }
}

// The touched set is a two-level bitmap: 32768 chunks per 4 KiB leaf,
// leaves allocated on first touch. A 4 GB, K=4 tree spans thousands
// of leaves.
struct BigFixture
{
    BackingStore base;
    ShardRouter layout{64, 4ULL << 30};
    Key128 key{};
    Authenticator auth{Authenticator::Kind::kMd5, key, 64};
    ChunkStore store{base, layout, auth};
};

TEST(ChunkStoreTest, UntouchedInUnallocatedAndAllocatedLeaves)
{
    BigFixture f;
    EXPECT_FALSE(f.store.touched(0));
    EXPECT_FALSE(f.store.touched(40000)) << "leaf 1 not yet allocated";
    f.store.markTouched(32768);
    EXPECT_TRUE(f.store.touched(32768));
    EXPECT_FALSE(f.store.touched(32769)) << "same leaf, other bit";
    EXPECT_FALSE(f.store.touched(40000)) << "same leaf, other word";
    EXPECT_FALSE(f.store.touched(32767)) << "previous leaf";
    EXPECT_FALSE(f.store.touched(f.layout.totalChunks() - 1));
}

TEST(ChunkStoreTest, LeafBoundaryAndLastChunkRoundTrip)
{
    const std::uint64_t last = ShardRouter(64, 4ULL << 30).totalChunks() - 1;
    ASSERT_GT(last >> 15, 1000u) << "the tree spans many leaves";
    const std::vector<std::uint64_t> chunks{32767, 32768, last};

    BigFixture written;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const std::uint64_t c = chunks[i];
        const std::vector<std::uint8_t> data{
            static_cast<std::uint8_t>(i + 1), 0xab, 0xcd};
        written.store.write(written.layout.chunkAddr(c) + 8, data);
        EXPECT_TRUE(written.store.touched(c)) << c;
        Untrusted<std::vector<std::uint8_t>> out;
        written.store.readRange(written.layout.chunkAddr(c) + 8, 3, out);
        EXPECT_EQ(out.forCheck(), data) << c;
    }
    EXPECT_EQ(written.store.touchedChunks(), chunks);

    BigFixture marked;
    for (const std::uint64_t c : chunks) {
        EXPECT_FALSE(marked.store.touched(c)) << c;
        marked.store.markTouched(c);
        EXPECT_TRUE(marked.store.touched(c)) << c;
    }
    EXPECT_EQ(marked.store.touchedChunks(), chunks);
}

TEST(ChunkStoreTest, TouchedChunksIterateAscending)
{
    BigFixture f;
    const std::uint64_t last = f.layout.totalChunks() - 1;
    const std::vector<std::uint64_t> order{
        5'000'000, 63, last, 0, 32768, 64, 1'000'000, 32767, 65};
    for (const std::uint64_t c : order)
        f.store.markTouched(c);
    f.store.write(f.layout.chunkAddr(777), std::vector<std::uint8_t>{1});
    std::vector<std::uint64_t> expected = order;
    expected.push_back(777);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(f.store.touchedChunks(), expected);
}

// The checked unwrap hands the bytes out only when they match the
// expected authenticator; one flipped bit and it yields nothing.
TEST(UntrustedTest, CheckedUnwrapYieldsOnlyMatchingBytes)
{
    Fixture f;
    const std::uint64_t chunk = f.layout.firstDataChunk() + 1;
    f.store.write(f.layout.chunkAddr(chunk) + 4,
                  std::vector<std::uint8_t>{1, 2, 3, 4});
    const std::vector<std::uint8_t> image =
        f.store.readChunk(chunk).forCheck();
    const Slot slot = f.auth.compute(image, Slot{});

    const std::optional<std::vector<std::uint8_t>> good =
        f.store.readChunk(chunk).verified(f.auth, slot);
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(*good, image);

    f.store.write(f.layout.chunkAddr(chunk), std::vector<std::uint8_t>{9});
    EXPECT_FALSE(f.store.readChunk(chunk).verified(f.auth, slot));
}

// Reads into a caller-owned buffer reuse its storage: a scratch
// buffer read chunk after chunk, or for a shorter range, never moves.
TEST(UntrustedTest, ScratchReadsKeepTheirBuffer)
{
    Fixture f;
    Untrusted<std::vector<std::uint8_t>> scratch;
    f.store.readChunk(f.layout.firstDataChunk(), scratch);
    const std::uint8_t *buffer = scratch.forCheck().data();
    for (std::uint64_t c = 0; c < f.layout.totalChunks(); ++c) {
        f.store.readChunk(c, scratch);
        EXPECT_EQ(scratch.forCheck().size(), 64u);
        EXPECT_EQ(scratch.forCheck().data(), buffer) << c;
    }
    f.store.readRange(f.layout.chunkAddr(5), 16, scratch);
    EXPECT_EQ(scratch.forCheck().size(), 16u);
    EXPECT_EQ(scratch.forCheck().data(), buffer);
}

} // namespace
} // namespace cmt
