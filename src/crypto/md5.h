/**
 * @file
 * MD5 message digest (RFC 1321), implemented from scratch.
 *
 * The paper's hash unit digests fixed 512-bit blocks with MD5 or SHA-1;
 * the simulator carries real MD5 digests through the memory hierarchy
 * so tamper detection in tests is genuine, not modelled.
 *
 * MD5 is cryptographically broken for collision resistance today; we
 * reproduce the paper's 2003-era choice faithfully and note that every
 * component is parameterised over the digest function.
 */

#ifndef CMT_CRYPTO_MD5_H
#define CMT_CRYPTO_MD5_H

#include <array>
#include <cstdint>
#include <span>

namespace cmt
{

/** A 128-bit digest or MAC value. */
using Hash128 = std::array<std::uint8_t, 16>;

/** Incremental MD5 context. */
class Md5
{
  public:
    Md5() { reset(); }

    /** Reinitialise to the empty message. */
    void reset();

    /** Absorb @p data. */
    void update(std::span<const std::uint8_t> data);

    /** Finalise and return the digest; the context must be reset()
     *  before reuse. */
    Hash128 finish();

    /** One-shot convenience. */
    static Hash128 digest(std::span<const std::uint8_t> data);

    /**
     * Digest @p msgs.size() independent messages: out[i] =
     * digest(msgs[i]). Runs of equal-length messages are compressed
     * in interleaved groups of 4, then 2, then 1 stream, which gives
     * the CPU independent dependency chains: a 4-wide group runs as
     * SSE2 lanes on x86-64 and as the portable interleave elsewhere.
     * Results are bit-identical to the one-at-a-time loop.
     */
    static void
    digestChain(std::span<const std::span<const std::uint8_t>> msgs,
                std::span<Hash128> out);

    /**
     * As digestChain, but every stream starts from @p seed, a
     * compression state captured after @p seed_bytes block-aligned
     * bytes (HMAC uses this to pay for the key-pad block once per
     * key instead of once per message).
     */
    static void
    digestChainFrom(const std::uint32_t seed[4],
                    std::uint64_t seed_bytes,
                    std::span<const std::span<const std::uint8_t>> msgs,
                    std::span<Hash128> out);

    /**
     * Reinitialise from a captured compression state at a 64-byte
     * boundary, as if @p bytes_absorbed bytes had been update()d.
     */
    void seedState(const std::uint32_t state[4],
                   std::uint64_t bytes_absorbed);

    /** Raw compression state; only valid at a 64-byte boundary. */
    std::array<std::uint32_t, 4> stateWords() const;

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t state_[4];
    std::uint64_t totalBytes_;
    std::uint8_t buffer_[64];
    std::size_t bufferLen_;
};

} // namespace cmt

#endif // CMT_CRYPTO_MD5_H
