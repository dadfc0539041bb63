/**
 * @file
 * Lazily-materialising view of tree-structured RAM.
 *
 * A freshly initialised tree over N bytes of zeroed memory has a
 * perfectly regular shape: every untouched data chunk is all-zero and
 * every untouched hash chunk at level k holds m copies of the
 * canonical level-(k+1) authenticator. ChunkStore exploits this so
 * that "initialise secure mode over 4 GB" (Section 5.7's procedure)
 * costs O(levels) digests instead of hashing the world; chunks become
 * concrete in the backing store on first write.
 *
 * All simulator and library RAM traffic flows through this class, so
 * adversary tampering (a write) naturally promotes a chunk to
 * concrete storage.
 *
 * Reads through a ChunkStore are typed: readChunk, readRange and
 * readSlot return Untrusted values (tree/untrusted.h), and the
 * Storage::read override is private. Only code that holds the store
 * as a plain Storage (the timing model, the Adversary, the Section
 * 5.7 ReadWithoutChecking view MerkleMemory::ram()) reads raw bytes.
 */

#ifndef CMT_TREE_CHUNK_STORE_H
#define CMT_TREE_CHUNK_STORE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/storage.h"
#include "tree/authenticator.h"
#include "tree/layout.h"
#include "tree/shard_router.h"
#include "tree/untrusted.h"

namespace cmt
{

/** Storage decorator providing canonical content for virgin chunks. */
class ChunkStore : public Storage
{
  public:
    ChunkStore(Storage &base, const ShardRouter &tree,
               const Authenticator &auth);

    void write(std::uint64_t addr,
               std::span<const std::uint8_t> in) override;

    /** Whether @p chunk has ever been written concretely. */
    bool
    touched(std::uint64_t chunk) const
    {
        const std::uint64_t leaf = chunk >> kLeafShift;
        if (leaf >= touched_.size() || touched_[leaf] == nullptr)
            return false;
        const std::uint64_t bit = chunk & (kLeafBits - 1);
        return ((*touched_[leaf])[bit / 64] >> (bit % 64)) & 1;
    }

    /** Every chunk that has been written concretely, ascending. */
    std::vector<std::uint64_t> touchedChunks() const;

    /**
     * Mark @p chunk concrete without writing (state restore: the
     * backing store already holds its bytes).
     */
    void markTouched(std::uint64_t chunk);

    /** Canonical (all-virgin) authenticator for a chunk at @p level.
     *  Shards are geometrically identical, so one table serves all. */
    const Slot &
    canonicalSlot(unsigned level) const
    {
        cmt_assert(level >= 1 && level <= tree_.levels());
        return canonicalSlots_[level];
    }

    /** Read exactly one whole chunk. */
    Untrusted<std::vector<std::uint8_t>> readChunk(std::uint64_t chunk);

    /** As readChunk, into a caller-owned buffer (resized to the chunk
     *  size; capacity is retained across calls, so hot loops reading
     *  many chunks through one scratch buffer never reallocate). */
    void readChunk(std::uint64_t chunk,
                   Untrusted<std::vector<std::uint8_t>> &out);

    /** Read @p len bytes at RAM address @p addr into a caller-owned
     *  buffer (resized; capacity retained, as for readChunk). */
    void readRange(std::uint64_t addr, std::size_t len,
                   Untrusted<std::vector<std::uint8_t>> &out);

    /** Read one 16-byte slot of a hash chunk. */
    Untrusted<Slot> readSlot(std::uint64_t chunk,
                             std::uint64_t slot_index);

    /** Convenience: overwrite one 16-byte slot of a hash chunk. */
    void writeSlot(std::uint64_t chunk, std::uint64_t slot_index,
                   const Slot &value);

    /**
     * Whole-tree audit: every touched chunk's image against its
     * parent's slot in RAM, or its root register, in batches through
     * Authenticator::verifyChain. Untouched chunks hold canonical
     * bytes and verify by construction. Call it with nothing dirty
     * on chip. @return false on the first mismatch.
     */
    [[nodiscard]] bool verifyTouched();

    /** One shard's geometry (identical across shards). */
    const TreeLayout &layout() const { return tree_.shardLayout(); }

    /** The shard router all addresses resolve through. */
    const ShardRouter &tree() const { return tree_; }

  private:
    /** Raw bytes, reachable only through a Storage reference. */
    void read(std::uint64_t addr, std::span<std::uint8_t> out) override;

    /** Chunks per touched-bitmap leaf: one 4 KiB page of bits. */
    static constexpr unsigned kLeafShift = 15;
    static constexpr std::uint64_t kLeafBits = std::uint64_t{1}
                                               << kLeafShift;
    using Leaf = std::array<std::uint64_t, kLeafBits / 64>;

    /** Fill @p out with the canonical bytes of @p chunk from byte
     *  @p offset of the chunk on. */
    void canonicalBytes(std::uint64_t chunk, std::uint64_t offset,
                        std::span<std::uint8_t> out) const;

    /** Ensure @p chunk is concrete in the backing store. */
    void materialise(std::uint64_t chunk);

    Storage &base_;
    const ShardRouter &tree_;
    const Authenticator &auth_;
    /** Touched-chunk bitmap: touched_[chunk >> kLeafShift] holds bit
     *  (chunk mod kLeafBits); leaves are allocated on first touch. */
    std::vector<std::unique_ptr<Leaf>> touched_;
    /** canonicalSlots_[k] = authenticator of a virgin level-k chunk. */
    std::vector<Slot> canonicalSlots_;
};

} // namespace cmt

#endif // CMT_TREE_CHUNK_STORE_H
