/** @file MD5 against the RFC 1321 appendix test vectors. */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "crypto/md5.h"
#include "support/hex.h"
#include "support/random.h"

namespace cmt
{
namespace
{

std::string
md5Hex(const std::string &msg)
{
    const auto d = Md5::digest(
        {reinterpret_cast<const std::uint8_t *>(msg.data()), msg.size()});
    return toHex(d);
}

struct Vector
{
    const char *message;
    const char *digest;
};

// RFC 1321, appendix A.5.
constexpr Vector kRfc1321[] = {
    {"", "d41d8cd98f00b204e9800998ecf8427e"},
    {"a", "0cc175b9c0f1b6a831c399e269772661"},
    {"abc", "900150983cd24fb0d6963f7d28e17f72"},
    {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
    {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
    {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "d174ab98d277d9f5a5611c2c9f419d9f"},
    {"1234567890123456789012345678901234567890123456789012345678901234"
     "5678901234567890",
     "57edf4a22be3c955ac49da2e2107b67a"},
};

// gtest prints a Vector without PrintTo as its raw bytes, two
// pointers that move with every relink, and gtest_discover_tests puts
// that print into the ctest name. Print a label instead: the
// message's first 16 characters, non-alphanumerics as '_' (unique
// across the seven vectors).
void
PrintTo(const Vector &v, std::ostream *os)
{
    std::string label = std::string(v.message).substr(0, 16);
    for (char &c : label)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    *os << (label.empty() ? std::string("empty") : label);
}

class Md5Rfc1321 : public ::testing::TestWithParam<Vector>
{
};

TEST_P(Md5Rfc1321, MatchesReferenceDigest)
{
    EXPECT_EQ(md5Hex(GetParam().message), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(Vectors, Md5Rfc1321,
                         ::testing::ValuesIn(kRfc1321));

TEST(Md5Test, IncrementalEqualsOneShot)
{
    // Feed a message in awkward pieces; digest must match one-shot.
    Rng rng(3);
    std::vector<std::uint8_t> msg(1000);
    for (auto &b : msg)
        b = static_cast<std::uint8_t>(rng.next());

    const Hash128 oneshot = Md5::digest(msg);

    for (std::size_t piece : {1u, 3u, 63u, 64u, 65u, 127u, 999u}) {
        Md5 ctx;
        std::size_t pos = 0;
        while (pos < msg.size()) {
            const std::size_t take = std::min(piece, msg.size() - pos);
            ctx.update({msg.data() + pos, take});
            pos += take;
        }
        EXPECT_EQ(ctx.finish(), oneshot) << "piece size " << piece;
    }
}

TEST(Md5Test, BlockBoundaryLengths)
{
    // Lengths straddling the 64-byte block and 56-byte padding
    // boundaries exercise both padding branches.
    for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u,
                            128u}) {
        std::vector<std::uint8_t> msg(len, 'x');
        const Hash128 a = Md5::digest(msg);
        Md5 ctx;
        ctx.update(msg);
        EXPECT_EQ(ctx.finish(), a) << "len " << len;
    }
}

TEST(Md5Test, ResetAllowsReuse)
{
    Md5 ctx;
    ctx.update({reinterpret_cast<const std::uint8_t *>("abc"), 3});
    (void)ctx.finish();
    ctx.reset();
    ctx.update({reinterpret_cast<const std::uint8_t *>("abc"), 3});
    EXPECT_EQ(toHex(ctx.finish()), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, SingleBitChangesDigest)
{
    std::vector<std::uint8_t> msg(64, 0);
    const Hash128 base = Md5::digest(msg);
    for (int bit = 0; bit < 64 * 8; bit += 37) {
        auto tampered = msg;
        tampered[bit / 8] ^= 1u << (bit % 8);
        EXPECT_NE(Md5::digest(tampered), base) << "bit " << bit;
    }
}

TEST(Md5Test, DigestChainMatchesOneShotEqualLengths)
{
    // Equal-length chains take the interleaved multi-stream path;
    // cover every group shape (4/2/1) and both padding branches.
    Rng rng(7);
    for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u,
                            120u, 128u, 256u}) {
        for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 17u}) {
            std::vector<std::vector<std::uint8_t>> msgs(n);
            std::vector<std::span<const std::uint8_t>> spans;
            for (auto &m : msgs) {
                m.resize(len);
                for (auto &b : m)
                    b = static_cast<std::uint8_t>(rng.next());
                spans.push_back(m);
            }
            std::vector<Hash128> out(n);
            Md5::digestChain(spans, out);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(out[i], Md5::digest(spans[i]))
                    << "len " << len << " n " << n << " i " << i;
        }
    }
}

TEST(Md5Test, DigestChainMatchesOneShotMixedLengths)
{
    // Length changes break the lockstep runs; the chain must still
    // produce per-message one-shot digests.
    Rng rng(11);
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t len :
         {64u, 64u, 64u, 10u, 200u, 200u, 0u, 64u, 57u}) {
        std::vector<std::uint8_t> m(len);
        for (auto &b : m)
            b = static_cast<std::uint8_t>(rng.next());
        msgs.push_back(std::move(m));
    }
    for (const auto &m : msgs)
        spans.push_back(m);
    std::vector<Hash128> out(msgs.size());
    Md5::digestChain(spans, out);
    for (std::size_t i = 0; i < msgs.size(); ++i)
        EXPECT_EQ(out[i], Md5::digest(spans[i])) << "i " << i;
}

TEST(Md5Test, SeededStateResumesAtBlockBoundary)
{
    // seedState(stateWords(), 64) must behave exactly like having
    // absorbed those 64 bytes in the same context.
    Rng rng(13);
    std::vector<std::uint8_t> prefix(64);
    std::vector<std::uint8_t> rest(37);
    for (auto &b : prefix)
        b = static_cast<std::uint8_t>(rng.next());
    for (auto &b : rest)
        b = static_cast<std::uint8_t>(rng.next());

    Md5 whole;
    whole.update(prefix);
    whole.update(rest);
    const Hash128 expected = whole.finish();

    Md5 capture;
    capture.update(prefix);
    const auto words = capture.stateWords();

    Md5 resumed;
    resumed.seedState(words.data(), 64);
    resumed.update(rest);
    EXPECT_EQ(resumed.finish(), expected);

    // And the chain-from-seed variant agrees too.
    const std::span<const std::uint8_t> spans[] = {rest};
    Hash128 out[1];
    Md5::digestChainFrom(words.data(), 64, spans, out);
    EXPECT_EQ(out[0], expected);
}

} // namespace
} // namespace cmt
