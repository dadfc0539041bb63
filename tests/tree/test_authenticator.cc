/** @file Authenticator (slot computation) tests across all kinds. */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "crypto/md5.h"
#include "support/random.h"
#include "tree/authenticator.h"

namespace cmt
{
namespace
{

Key128
key()
{
    Key128 k;
    k.fill(0x77);
    return k;
}

std::vector<std::uint8_t>
randomChunk(Rng &rng, std::size_t size)
{
    std::vector<std::uint8_t> out(size);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

class AuthenticatorKinds
    : public ::testing::TestWithParam<Authenticator::Kind>
{
};

TEST_P(AuthenticatorKinds, VerifyAcceptsOwnComputation)
{
    const Authenticator auth(GetParam(), key(), 64);
    Rng rng(1);
    const auto chunk = randomChunk(rng, 128);
    const Slot zero{};
    const Slot slot = auth.compute(chunk, zero);
    EXPECT_TRUE(auth.verify(chunk, slot));
}

TEST_P(AuthenticatorKinds, VerifyRejectsTamperedChunk)
{
    const Authenticator auth(GetParam(), key(), 64);
    Rng rng(2);
    auto chunk = randomChunk(rng, 128);
    const Slot zero{};
    const Slot slot = auth.compute(chunk, zero);
    for (std::size_t pos = 0; pos < chunk.size(); pos += 17) {
        chunk[pos] ^= 0x01;
        EXPECT_FALSE(auth.verify(chunk, slot)) << "pos " << pos;
        chunk[pos] ^= 0x01;
    }
}

TEST_P(AuthenticatorKinds, VerifyRejectsTamperedSlot)
{
    const Authenticator auth(GetParam(), key(), 64);
    Rng rng(3);
    const auto chunk = randomChunk(rng, 128);
    const Slot zero{};
    Slot slot = auth.compute(chunk, zero);
    slot[3] ^= 0x40;
    EXPECT_FALSE(auth.verify(chunk, slot));
}

TEST_P(AuthenticatorKinds, DifferentChunksDifferentSlots)
{
    const Authenticator auth(GetParam(), key(), 64);
    Rng rng(4);
    const auto a = randomChunk(rng, 64);
    const auto b = randomChunk(rng, 64);
    const Slot zero{};
    EXPECT_NE(auth.compute(a, zero), auth.compute(b, zero));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AuthenticatorKinds,
    ::testing::Values(Authenticator::Kind::kMd5,
                      Authenticator::Kind::kSha1Trunc,
                      Authenticator::Kind::kXorMac));

TEST(AuthenticatorTest, Md5SlotIsPlainDigest)
{
    const Authenticator auth(Authenticator::Kind::kMd5, key(), 64);
    const std::vector<std::uint8_t> chunk(64, 0xab);
    const Slot zero{};
    EXPECT_EQ(auth.compute(chunk, zero), Md5::digest(chunk));
}

TEST(AuthenticatorTest, VerifyChainReportsFirstTamperedChunk)
{
    const Authenticator::Kind kinds[] = {
        Authenticator::Kind::kMd5,
        Authenticator::Kind::kSha1Trunc,
        Authenticator::Kind::kXorMac,
    };
    // Lengths straddle the 4/2/1 interleave groups and the 16-chunk
    // stack batch inside verifyChainFirstFailure.
    const std::size_t lengths[] = {1, 3, 4, 5, 13, 16, 17, 33};
    for (const Authenticator::Kind kind : kinds) {
        const Authenticator auth(kind, key(), 64);
        for (const std::size_t n : lengths) {
            SCOPED_TRACE(::testing::Message()
                         << "kind " << static_cast<int>(kind)
                         << " n " << n);
            Rng rng(n);
            std::vector<std::vector<std::uint8_t>> data;
            std::vector<std::span<const std::uint8_t>> chunks;
            std::vector<Slot> slots;
            for (std::size_t i = 0; i < n; ++i)
                data.push_back(randomChunk(rng, 128));
            for (const auto &chunk : data) {
                chunks.emplace_back(chunk);
                slots.push_back(auth.compute(chunk, Slot{}));
            }
            EXPECT_EQ(auth.verifyChainFirstFailure(chunks, slots), -1);
            EXPECT_TRUE(auth.verifyChain(chunks, slots));

            for (const std::size_t pos : {std::size_t{0}, std::size_t{4},
                                          std::size_t{15}, std::size_t{16},
                                          n - 1}) {
                if (pos >= n)
                    continue;
                data[pos][7] ^= 0x01;
                EXPECT_EQ(auth.verifyChainFirstFailure(chunks, slots),
                          static_cast<std::int64_t>(pos));
                EXPECT_FALSE(auth.verifyChain(chunks, slots));
                data[pos][7] ^= 0x01;
            }

            if (n >= 3) {
                const std::size_t first = n / 2, second = n - 1;
                data[first][0] ^= 0x80;
                data[second][127] ^= 0x80;
                EXPECT_EQ(auth.verifyChainFirstFailure(chunks, slots),
                          static_cast<std::int64_t>(first));
                EXPECT_FALSE(auth.verifyChain(chunks, slots));
            }
        }
    }
}

TEST(AuthenticatorTest, XorMacUpdateMatchesRecompute)
{
    const Authenticator auth(Authenticator::Kind::kXorMac, key(), 64);
    Rng rng(5);
    auto chunk = randomChunk(rng, 128); // 2 blocks
    const Slot zero{};
    Slot slot = auth.compute(chunk, zero);

    // Update block 1 incrementally.
    auto new_block = randomChunk(rng, 64);
    const Slot updated = auth.updateSlot(
        slot, 1,
        std::span<const std::uint8_t>(chunk).subspan(64, 64), new_block);

    // Recompute from scratch with the flipped timestamp.
    std::copy(new_block.begin(), new_block.end(), chunk.begin() + 64);
    EXPECT_TRUE(auth.verify(chunk, updated));
    EXPECT_TRUE(auth.tsBit(updated, 1));
    EXPECT_FALSE(auth.tsBit(updated, 0));
}

TEST(AuthenticatorTest, XorMacTimestampCarriesThroughCompute)
{
    const Authenticator auth(Authenticator::Kind::kXorMac, key(), 64);
    Rng rng(6);
    const auto chunk = randomChunk(rng, 128);
    // A previous slot with ts bits set must produce a slot that still
    // verifies (the MAC is computed under those same bits).
    Slot prev{};
    prev[14] = 0x02; // tsBits = 2: block 1's bit set
    const Slot slot = auth.compute(chunk, prev);
    EXPECT_TRUE(auth.verify(chunk, slot));
    EXPECT_TRUE(auth.tsBit(slot, 1));
}

TEST(AuthenticatorTest, IncrementalFlagOnlyForXorMac)
{
    EXPECT_FALSE(
        Authenticator(Authenticator::Kind::kMd5, key(), 64)
            .incremental());
    EXPECT_FALSE(
        Authenticator(Authenticator::Kind::kSha1Trunc, key(), 64)
            .incremental());
    EXPECT_TRUE(
        Authenticator(Authenticator::Kind::kXorMac, key(), 64)
            .incremental());
}

} // namespace
} // namespace cmt
