/**
 * @file
 * The per-chunk authenticator: what a 16-byte tree slot holds and how
 * it is computed, verified, and incrementally updated.
 *
 * Three kinds reproduce the paper's schemes:
 *  - kMd5:       slot = MD5(chunk)            (naive, c, m schemes)
 *  - kSha1Trunc: slot = SHA-1(chunk)[0..15]   (Section 6.2 alternative)
 *  - kXorMac:    slot = [112-bit incremental MAC | 16 timestamp bits]
 *                (the i scheme of Section 5.5)
 */

#ifndef CMT_TREE_AUTHENTICATOR_H
#define CMT_TREE_AUTHENTICATOR_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "crypto/xormac.h"
#include "crypto/xtea.h"

namespace cmt
{

/** The 16 raw bytes of a tree slot. */
using Slot = std::array<std::uint8_t, 16>;

/** Chunk authenticator engine; immutable after construction. */
class Authenticator
{
  public:
    enum class Kind
    {
        kMd5,
        kSha1Trunc,
        kXorMac,
    };

    /**
     * @param kind        digest algorithm / MAC construction
     * @param key         MAC key (ignored by the plain-hash kinds)
     * @param block_size  cache-block granularity of the XOR-MAC terms
     * @param timestamps  false reproduces the broken variant of 5.5
     */
    Authenticator(Kind kind, const Key128 &key, std::size_t block_size,
                  bool timestamps = true);

    Kind kind() const { return kind_; }

    bool incremental() const { return kind_ == Kind::kXorMac; }

    /**
     * Authenticator of a fresh chunk image. For kXorMac the timestamp
     * bits embedded in @p prev_slot carry over (a from-scratch MAC of
     * the current content under the current timestamps); pass a
     * zeroed slot for a pristine chunk.
     */
    Slot compute(std::span<const std::uint8_t> chunk,
                 const Slot &prev_slot) const;

    /**
     * Slot values of many chunks in one call: out[i] = compute(
     * chunks[i], {}). kMd5 runs through the interleaved
     * Md5::digestChain, kSha1Trunc loops. Only for the kinds whose
     * slot is a pure function of the image; panics for kXorMac,
     * whose slot also depends on the previous timestamp bits.
     */
    void computeChain(std::span<const std::span<const std::uint8_t>> chunks,
                      std::span<Slot> out) const;

    /** Check @p chunk against the stored @p slot. */
    [[nodiscard]] bool verify(std::span<const std::uint8_t> chunk,
                              const Slot &slot) const;

    /**
     * Check a whole ancestor chain in one call: chunks[i] against
     * slots[i], returning the AND of every verdict. Equivalent to a
     * verify() loop but routes kMd5 through the interleaved
     * Md5::digestChain, which is how the batched policies and
     * MerkleMemory check a root-to-leaf path.
     */
    [[nodiscard]] bool
    verifyChain(std::span<const std::span<const std::uint8_t>> chunks,
                std::span<const Slot> slots) const;

    /**
     * As verifyChain, but reports *which* level failed: the smallest
     * i with compute(chunks[i]) != slots[i], or -1 when the whole
     * chain verifies. Callers that must attribute a failure to a
     * specific chunk (MerkleMemory's exception carries the chunk
     * index) use this form.
     */
    [[nodiscard]] std::int64_t verifyChainFirstFailure(
        std::span<const std::span<const std::uint8_t>> chunks,
        std::span<const Slot> slots) const;

    /**
     * Incremental single-block update (kXorMac only): applies the old
     * block -> new block change to @p old_slot and flips the block's
     * timestamp bit. Panics for non-incremental kinds.
     */
    Slot updateSlot(const Slot &old_slot, unsigned block_idx,
                    std::span<const std::uint8_t> old_block,
                    std::span<const std::uint8_t> new_block) const;

    /** Timestamp bit of @p block_idx inside @p slot (kXorMac). */
    bool tsBit(const Slot &slot, unsigned block_idx) const;

  private:
    Kind kind_;
    std::size_t blockSize_;
    std::unique_ptr<XorMac> mac_; // only for kXorMac
};

} // namespace cmt

#endif // CMT_TREE_AUTHENTICATOR_H
