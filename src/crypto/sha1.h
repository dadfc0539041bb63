/**
 * @file
 * SHA-1 message digest (RFC 3174 / FIPS 180-1), from scratch.
 *
 * Offered alongside MD5 because the paper's Section 6.2 sizes the hash
 * logic for both; the tree can be configured to use truncated SHA-1
 * digests instead of MD5.
 */

#ifndef CMT_CRYPTO_SHA1_H
#define CMT_CRYPTO_SHA1_H

#include <array>
#include <cstdint>
#include <span>

namespace cmt
{

/** A 160-bit SHA-1 digest. */
using Hash160 = std::array<std::uint8_t, 20>;

/** Incremental SHA-1 context. */
class Sha1
{
  public:
    Sha1() { reset(); }

    /** Reinitialise to the empty message. */
    void reset();

    /** Absorb @p data. */
    void update(std::span<const std::uint8_t> data);

    /** Finalise and return the digest. */
    Hash160 finish();

    /** One-shot convenience. */
    static Hash160 digest(std::span<const std::uint8_t> data);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t state_[5];
    std::uint64_t totalBytes_;
    std::uint8_t buffer_[64];
    std::size_t bufferLen_;
};

} // namespace cmt

#endif // CMT_CRYPTO_SHA1_H
