#include "crypto/sha1.h"

#include <bit>
#include <cstring>

namespace cmt
{

namespace
{

std::uint32_t
rotl(std::uint32_t x, int s)
{
    // std::rotl is defined for every shift count; the hand-rolled
    // (x << s) | (x >> (32 - s)) is shift-by-width UB at s == 0.
    return std::rotl(x, s);
}

} // namespace

void
Sha1::reset()
{
    state_[0] = 0x67452301u;
    state_[1] = 0xefcdab89u;
    state_[2] = 0x98badcfeu;
    state_[3] = 0x10325476u;
    state_[4] = 0xc3d2e1f0u;
    totalBytes_ = 0;
    bufferLen_ = 0;
}

void
Sha1::processBlock(const std::uint8_t *block)
{
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
               (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
               (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i)
        w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

    std::uint32_t a = state_[0], b = state_[1], c = state_[2];
    std::uint32_t d = state_[3], e = state_[4];

    for (int i = 0; i < 80; ++i) {
        std::uint32_t f, k;
        if (i < 20) {
            f = (b & c) | (~b & d);
            k = 0x5a827999u;
        } else if (i < 40) {
            f = b ^ c ^ d;
            k = 0x6ed9eba1u;
        } else if (i < 60) {
            f = (b & c) | (b & d) | (c & d);
            k = 0x8f1bbcdcu;
        } else {
            f = b ^ c ^ d;
            k = 0xca62c1d6u;
        }
        const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
        e = d;
        d = c;
        c = rotl(b, 30);
        b = a;
        a = tmp;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
}

void
Sha1::update(std::span<const std::uint8_t> data)
{
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

Hash160
Sha1::finish()
{
    const std::uint64_t bit_len = totalBytes_ * 8;

    std::uint8_t pad[72] = {0x80};
    const std::size_t pad_len =
        (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
    update({pad, pad_len});

    // 64-bit big-endian bit length.
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i)
        len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    update({len_bytes, 8});

    Hash160 out;
    for (int i = 0; i < 5; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Hash160
Sha1::digest(std::span<const std::uint8_t> data)
{
    Sha1 ctx;
    ctx.update(data);
    return ctx.finish();
}

} // namespace cmt
