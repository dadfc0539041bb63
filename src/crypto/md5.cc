#include "crypto/md5.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define CMT_MD5_SIMD 1
#include <emmintrin.h>
#endif

#include "support/logging.h"

namespace cmt
{

namespace
{

constexpr std::uint32_t kInit[4] = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
};

// Per-round left-rotate amounts (RFC 1321, four groups of 16).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5,  9, 14, 20, 5,  9, 14, 20, 5,  9, 14, 20, 5,  9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
};

// K[i] = floor(2^32 * abs(sin(i + 1))).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu,
    0xf57c0fafu, 0x4787c62au, 0xa8304613u, 0xfd469501u,
    0x698098d8u, 0x8b44f7afu, 0xffff5bb1u, 0x895cd7beu,
    0x6b901122u, 0xfd987193u, 0xa679438eu, 0x49b40821u,
    0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u,
    0x21e1cde6u, 0xc33707d6u, 0xf4d50d87u, 0x455a14edu,
    0xa9e3e905u, 0xfcefa3f8u, 0x676f02d9u, 0x8d2a4c8au,
    0xfffa3942u, 0x8771f681u, 0x6d9d6122u, 0xfde5380cu,
    0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u,
    0xd9d4d039u, 0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u,
    0xf4292244u, 0x432aff97u, 0xab9423a7u, 0xfc93a039u,
    0x655b59c3u, 0x8f0ccc92u, 0xffeff47du, 0x85845dd1u,
    0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u,
};

std::uint32_t
rotl(std::uint32_t x, int s)
{
    // std::rotl is defined for every shift count; the hand-rolled
    // (x << s) | (x >> (32 - s)) is shift-by-width UB at s == 0.
    return std::rotl(x, s);
}

/**
 * Compress one 64-byte block into each of K independent states. The
 * K streams share the round schedule but carry no data dependencies
 * between each other, so for fixed K the fully unrolled inner loop
 * gives the CPU K parallel dependency chains - MD5's serial rounds
 * are the bottleneck, and two-to-four interleaved streams roughly
 * double throughput on out-of-order cores.
 */
template <int K>
void
compressK(std::uint32_t (&states)[K][4],
          const std::uint8_t *const (&blocks)[K])
{
    std::uint32_t m[K][16];
    for (int k = 0; k < K; ++k) {
        for (int i = 0; i < 16; ++i) {
            const std::uint8_t *p = blocks[k] + 4 * i;
            m[k][i] = static_cast<std::uint32_t>(p[0]) |
                      (static_cast<std::uint32_t>(p[1]) << 8) |
                      (static_cast<std::uint32_t>(p[2]) << 16) |
                      (static_cast<std::uint32_t>(p[3]) << 24);
        }
    }

    std::uint32_t a[K], b[K], c[K], d[K];
    for (int k = 0; k < K; ++k) {
        a[k] = states[k][0];
        b[k] = states[k][1];
        c[k] = states[k][2];
        d[k] = states[k][3];
    }

    // Fully unrolled, so each round's message index, shift and sine
    // constant are compile-time constants.
#pragma GCC unroll 64
    for (int i = 0; i < 64; ++i) {
        int g;
        if (i < 16)
            g = i;
        else if (i < 32)
            g = (5 * i + 1) & 15;
        else if (i < 48)
            g = (3 * i + 5) & 15;
        else
            g = (7 * i) & 15;
        for (int k = 0; k < K; ++k) {
            std::uint32_t f;
            if (i < 16)
                f = (b[k] & c[k]) | (~b[k] & d[k]);
            else if (i < 32)
                f = (d[k] & b[k]) | (~d[k] & c[k]);
            else if (i < 48)
                f = b[k] ^ c[k] ^ d[k];
            else
                f = c[k] ^ (b[k] | ~d[k]);
            const std::uint32_t tmp = d[k];
            d[k] = c[k];
            c[k] = b[k];
            b[k] = b[k] + rotl(a[k] + f + kSine[i] + m[k][g],
                               kShift[i]);
            a[k] = tmp;
        }
    }

    for (int k = 0; k < K; ++k) {
        states[k][0] += a[k];
        states[k][1] += b[k];
        states[k][2] += c[k];
        states[k][3] += d[k];
    }
}

#ifdef CMT_MD5_SIMD

/**
 * Lane-parallel compress: the K interleaved streams of compressK map
 * one-to-one onto SIMD lanes of 32-bit words. MD5 rounds use only
 * add, rotate and bitwise ops, all exact in every lane, so the
 * digests are bit-identical to the scalar path - vector width is
 * purely a throughput choice. SSE2 (4 lanes) is x86-64 baseline, so
 * no CPU dispatch is needed; elsewhere K = 4 stays on the portable
 * interleave. A runtime-dispatched 8-lane twin was measured and
 * removed: it cut the traced per-chunk MD5 cost but left the
 * end-to-end simulator rows within run-to-run spread.
 */
inline __m128i
rotl4(__m128i x, int s)
{
    return _mm_or_si128(_mm_slli_epi32(x, s),
                        _mm_srli_epi32(x, 32 - s));
}

void
compress4Sse2(std::uint32_t (&states)[4][4],
              const std::uint8_t *const (&blocks)[4])
{
    const auto word = [](const std::uint8_t *p) {
        std::uint32_t w;
        std::memcpy(&w, p, 4); // little-endian load, as in compressK
        return static_cast<int>(w);
    };
    __m128i m[16];
    for (int i = 0; i < 16; ++i)
        m[i] = _mm_set_epi32(word(blocks[3] + 4 * i),
                             word(blocks[2] + 4 * i),
                             word(blocks[1] + 4 * i),
                             word(blocks[0] + 4 * i));

    __m128i a = _mm_set_epi32(static_cast<int>(states[3][0]),
                              static_cast<int>(states[2][0]),
                              static_cast<int>(states[1][0]),
                              static_cast<int>(states[0][0]));
    __m128i b = _mm_set_epi32(static_cast<int>(states[3][1]),
                              static_cast<int>(states[2][1]),
                              static_cast<int>(states[1][1]),
                              static_cast<int>(states[0][1]));
    __m128i c = _mm_set_epi32(static_cast<int>(states[3][2]),
                              static_cast<int>(states[2][2]),
                              static_cast<int>(states[1][2]),
                              static_cast<int>(states[0][2]));
    __m128i d = _mm_set_epi32(static_cast<int>(states[3][3]),
                              static_cast<int>(states[2][3]),
                              static_cast<int>(states[1][3]),
                              static_cast<int>(states[0][3]));

#pragma GCC unroll 64
    for (int i = 0; i < 64; ++i) {
        __m128i f;
        int g;
        if (i < 16) {
            f = _mm_or_si128(_mm_and_si128(b, c),
                             _mm_andnot_si128(b, d));
            g = i;
        } else if (i < 32) {
            f = _mm_or_si128(_mm_and_si128(d, b),
                             _mm_andnot_si128(d, c));
            g = (5 * i + 1) & 15;
        } else if (i < 48) {
            f = _mm_xor_si128(_mm_xor_si128(b, c), d);
            g = (3 * i + 5) & 15;
        } else {
            f = _mm_xor_si128(
                c, _mm_or_si128(b, _mm_xor_si128(
                                       d, _mm_set1_epi32(-1))));
            g = (7 * i) & 15;
        }
        const __m128i sum = _mm_add_epi32(
            _mm_add_epi32(a, f),
            _mm_add_epi32(_mm_set1_epi32(
                              static_cast<int>(kSine[i])),
                          m[g]));
        const __m128i tmp = d;
        d = c;
        c = b;
        b = _mm_add_epi32(b, rotl4(sum, kShift[i]));
        a = tmp;
    }

    alignas(16) std::uint32_t oa[4], ob[4], oc[4], od[4];
    _mm_store_si128(reinterpret_cast<__m128i *>(oa), a);
    _mm_store_si128(reinterpret_cast<__m128i *>(ob), b);
    _mm_store_si128(reinterpret_cast<__m128i *>(oc), c);
    _mm_store_si128(reinterpret_cast<__m128i *>(od), d);
    for (int k = 0; k < 4; ++k) {
        states[k][0] += oa[k];
        states[k][1] += ob[k];
        states[k][2] += oc[k];
        states[k][3] += od[k];
    }
}

template <>
void
compressK<4>(std::uint32_t (&states)[4][4],
             const std::uint8_t *const (&blocks)[4])
{
    compress4Sse2(states, blocks);
}

#endif

void
storeDigest(const std::uint32_t state[4], Hash128 *out)
{
    for (int i = 0; i < 4; ++i) {
        (*out)[4 * i] = static_cast<std::uint8_t>(state[i]);
        (*out)[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 8);
        (*out)[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 16);
        (*out)[4 * i + 3] = static_cast<std::uint8_t>(state[i] >> 24);
    }
}

/**
 * Digest K equal-length streams in lockstep: same block count, same
 * padding shape, one compressK call per block position.
 */
template <int K>
void
digestStreams(const std::uint32_t seed[4], std::uint64_t seed_bytes,
              const std::span<const std::uint8_t> *msgs, Hash128 *out)
{
    const std::size_t len = msgs[0].size();
    const std::uint64_t bit_len = (seed_bytes + len) * 8;
    const std::size_t full = len / 64;
    const std::size_t rem = len % 64;
    const int tail_blocks = rem >= 56 ? 2 : 1;

    std::uint32_t states[K][4];
    for (int k = 0; k < K; ++k)
        std::memcpy(states[k], seed, sizeof(states[k]));

    const std::uint8_t *blocks[K];
    for (std::size_t blk = 0; blk < full; ++blk) {
        for (int k = 0; k < K; ++k)
            blocks[k] = msgs[k].data() + blk * 64;
        compressK<K>(states, blocks);
    }

    // Padding: 0x80, zeros, 64-bit little-endian bit length.
    std::uint8_t tail[K][128];
    for (int k = 0; k < K; ++k) {
        std::memset(tail[k], 0,
                    static_cast<std::size_t>(tail_blocks) * 64);
        if (rem > 0)
            std::memcpy(tail[k], msgs[k].data() + full * 64, rem);
        tail[k][rem] = 0x80;
        std::uint8_t *lenp = tail[k] + tail_blocks * 64 - 8;
        for (int i = 0; i < 8; ++i)
            lenp[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
    }
    for (int t = 0; t < tail_blocks; ++t) {
        for (int k = 0; k < K; ++k)
            blocks[k] = tail[k] + t * 64;
        compressK<K>(states, blocks);
    }

    for (int k = 0; k < K; ++k)
        storeDigest(states[k], &out[k]);
}

/** Digest a run of @p n equal-length messages, widest groups first. */
void
digestEqualRun(const std::uint32_t seed[4], std::uint64_t seed_bytes,
               const std::span<const std::uint8_t> *msgs, std::size_t n,
               Hash128 *out)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        digestStreams<4>(seed, seed_bytes, msgs + i, out + i);
    for (; i + 2 <= n; i += 2)
        digestStreams<2>(seed, seed_bytes, msgs + i, out + i);
    for (; i < n; ++i)
        digestStreams<1>(seed, seed_bytes, msgs + i, out + i);
}

} // namespace

void
Md5::reset()
{
    std::memcpy(state_, kInit, sizeof(state_));
    totalBytes_ = 0;
    bufferLen_ = 0;
}

void
Md5::processBlock(const std::uint8_t *block)
{
    std::uint32_t states[1][4];
    std::memcpy(states[0], state_, sizeof(state_));
    const std::uint8_t *const blocks[1] = {block};
    compressK<1>(states, blocks);
    std::memcpy(state_, states[0], sizeof(state_));
}

void
Md5::update(std::span<const std::uint8_t> data)
{
    // An empty span may carry a null data() pointer, which memcpy
    // must never see even with a zero length.
    if (data.empty())
        return;
    totalBytes_ += data.size();
    std::size_t pos = 0;

    if (bufferLen_ > 0) {
        const std::size_t need = 64 - bufferLen_;
        const std::size_t take = std::min(need, data.size());
        std::memcpy(buffer_ + bufferLen_, data.data(), take);
        bufferLen_ += take;
        pos = take;
        if (bufferLen_ == 64) {
            processBlock(buffer_);
            bufferLen_ = 0;
        }
    }

    while (pos + 64 <= data.size()) {
        processBlock(data.data() + pos);
        pos += 64;
    }

    if (pos < data.size()) {
        std::memcpy(buffer_, data.data() + pos, data.size() - pos);
        bufferLen_ = data.size() - pos;
    }
}

Hash128
Md5::finish()
{
    const std::uint64_t bit_len = totalBytes_ * 8;

    // Pad: 0x80, zeros, then the 64-bit little-endian bit length.
    std::uint8_t pad[72] = {0x80};
    const std::size_t pad_len =
        (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
    update({pad, pad_len});

    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i)
        len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
    // Bypass the length accounting for the trailer itself.
    totalBytes_ -= pad_len; // keep totalBytes_ meaningless after finish
    update({len_bytes, 8});

    Hash128 out;
    storeDigest(state_, &out);
    return out;
}

Hash128
Md5::digest(std::span<const std::uint8_t> data)
{
    Md5 ctx;
    ctx.update(data);
    return ctx.finish();
}

void
Md5::digestChain(std::span<const std::span<const std::uint8_t>> msgs,
                 std::span<Hash128> out)
{
    digestChainFrom(kInit, 0, msgs, out);
}

void
Md5::digestChainFrom(
    const std::uint32_t seed[4], std::uint64_t seed_bytes,
    std::span<const std::span<const std::uint8_t>> msgs,
    std::span<Hash128> out)
{
    cmt_assert(out.size() >= msgs.size());
    cmt_assert(seed_bytes % 64 == 0);
    // Interleave maximal runs of equal-length messages; a length
    // change ends the run because the streams would fall out of
    // block lockstep.
    std::size_t i = 0;
    while (i < msgs.size()) {
        std::size_t j = i + 1;
        while (j < msgs.size() &&
               msgs[j].size() == msgs[i].size())
            ++j;
        digestEqualRun(seed, seed_bytes, msgs.data() + i, j - i,
                       out.data() + i);
        i = j;
    }
}

void
Md5::seedState(const std::uint32_t state[4],
               std::uint64_t bytes_absorbed)
{
    cmt_assert(bytes_absorbed % 64 == 0);
    std::memcpy(state_, state, sizeof(state_));
    totalBytes_ = bytes_absorbed;
    bufferLen_ = 0;
}

std::array<std::uint32_t, 4>
Md5::stateWords() const
{
    cmt_assert(bufferLen_ == 0);
    return {state_[0], state_[1], state_[2], state_[3]};
}

} // namespace cmt
