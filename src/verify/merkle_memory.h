/**
 * @file
 * MerkleMemory: the paper's integrity-verified memory as a standalone
 * functional library.
 *
 * A MerkleMemory wraps an untrusted Storage with an m-ary hash tree
 * whose root authenticators live inside the object (modelling on-chip
 * secure registers). Reads verify; writes maintain the tree. Two
 * operating modes mirror the paper's spectrum:
 *
 *  - cacheChunks == 0 ("naive", Section 5.2): every load verifies the
 *    full ancestor path from RAM and every store rewrites it.
 *  - cacheChunks > 0 ("cached", Section 5.3): an LRU cache of trusted
 *    chunks plays the role of the integrated L2; a cached chunk is the
 *    root of its own subtree, so hot paths verify nothing at all.
 *
 * With Authenticator::Kind::kXorMac the write-back path uses the
 * incremental MAC of Section 5.5 (the i scheme), updating one block's
 * term instead of re-hashing the chunk and flipping its one-bit
 * timestamp.
 *
 * Tampering with the untrusted storage is detected on the next
 * verified load and reported with IntegrityException.
 */

#ifndef CMT_VERIFY_MERKLE_MEMORY_H
#define CMT_VERIFY_MERKLE_MEMORY_H

#include <cstdint>
#include <list>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/storage.h"
#include "support/stats.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/layout.h"
#include "tree/shard_router.h"

namespace cmt
{

/** Raised when a verified load meets tampered or stale memory. */
class IntegrityException : public std::runtime_error
{
  public:
    IntegrityException(std::uint64_t chunk, const std::string &what)
        : std::runtime_error(what), chunk_(chunk)
    {}

    /** Tree chunk index whose check failed. */
    std::uint64_t chunk() const { return chunk_; }

  private:
    std::uint64_t chunk_;
};

/** Construction parameters for MerkleMemory. */
struct MerkleConfig
{
    /** Bytes per tree chunk (power of two, >= 32). */
    std::uint64_t chunkSize = 64;
    /** Cache-block granularity inside a chunk (for kXorMac). */
    std::uint64_t blockSize = 64;
    /** Bytes of protected data capacity (rounded up to a full tree). */
    std::uint64_t protectedSize = 1 << 20;
    /** Digest / MAC construction for tree slots. */
    Authenticator::Kind auth = Authenticator::Kind::kMd5;
    /** One-bit write-back timestamps (kXorMac); false = broken 5.5. */
    bool timestamps = true;
    /** Trusted chunk cache capacity; 0 selects the naive mode. */
    std::size_t cacheChunks = 0;
    /** Independent subtrees over the protected region (power of two);
     *  1 reproduces the paper's single tree. Each shard gets its own
     *  root registers (shard_router.h). */
    unsigned shards = 1;
    /** MAC key (kXorMac). */
    Key128 key{};
};

/** Integrity-verified memory over untrusted storage. */
class MerkleMemory
{
  public:
    /**
     * @param untrusted  adversary-accessible backing storage; the tree
     *                   (hash chunks and data chunks) lives here
     * @param config     geometry and scheme selection
     */
    MerkleMemory(Storage &untrusted, const MerkleConfig &config);

    /**
     * Smallest nonzero cacheChunks that @p config admits: the cached
     * mode pins a root-to-leaf path while loading, so the cache must
     * comfortably exceed the (per-shard) tree height.
     */
    static std::size_t minCacheChunks(const MerkleConfig &config);

    /** Protected capacity in bytes (all shards together). */
    std::uint64_t size() const { return tree_.dataBytes(); }

    /** Verified load; throws IntegrityException on tampering. */
    void load(std::uint64_t addr, std::span<std::uint8_t> out);

    /** Tree-maintaining store. */
    void store(std::uint64_t addr, std::span<const std::uint8_t> in);

    /** Convenience scalar accessors. */
    std::uint64_t load64(std::uint64_t addr);
    void store64(std::uint64_t addr, std::uint64_t value);

    /**
     * Write back every dirty cached chunk (the tail of the paper's
     * Section 5.7 initialisation: flush forces the tree into RAM).
     */
    void flush();

    /** Drop all cached trust; subsequent loads re-verify from RAM. */
    void clearCache();

    /**
     * DMA write (Section 5.7): data lands in RAM without the tree
     * being maintained; the region must be rebuilt before verified
     * use. Reading it through load() before rebuild() will (by
     * design) raise IntegrityException.
     */
    void dmaWrite(std::uint64_t addr, std::span<const std::uint8_t> in);

    /**
     * Re-protect [addr, addr+len): recompute the authenticators of
     * every covered leaf chunk and their ancestors, accepting the
     * current RAM content as authentic. This is the "rebuild the
     * relevant part of the tree" step for DMA ingestion.
     */
    void rebuild(std::uint64_t addr, std::uint64_t len);

    /**
     * Walk every touched chunk and verify it against its parent.
     * @return false on the first inconsistency (no exception).
     */
    [[nodiscard]] bool verifyAll();

    /** One shard's geometry (identical across shards). */
    const TreeLayout &layout() const { return tree_.shardLayout(); }

    /** The shard router (global geometry + per-shard roots). */
    const ShardRouter &tree() const { return tree_; }

    /**
     * The untrusted RAM address space as the processor sees it,
     * including lazily-materialised canonical chunks. Adversary code
     * should tamper through this view so virgin chunks become
     * concrete (a raw write to the backing store underneath a chunk
     * the store still considers virgin would be masked by the
     * canonical content).
     */
    Storage &ram() { return chunks_; }

    /** The chunk-store view (persistence and diagnostics). */
    ChunkStore &chunkStore() { return chunks_; }

    /** Trusted root registers of every shard, shard-major
     *  (shards() * arity() slots), after flushing (persistence). */
    std::vector<Slot> exportRoots();

    /** Replace every shard's root registers (state restore); clears
     *  the cache so subsequent loads verify against the restored
     *  image. @p roots must hold shards() * arity() slots. */
    void importRoots(const std::vector<Slot> &roots);

    // --- statistics ---------------------------------------------------
    StatGroup &stats() { return stats_; }

  private:
    /** Declared before the counters: they register here on init. */
    StatGroup stats_;

  public:
    Counter statLoads;
    Counter statStores;
    Counter statAuthComputes;   ///< full-chunk digests/MACs computed
    Counter statAuthUpdates;    ///< incremental MAC updates
    Counter statChecks;         ///< child-vs-parent comparisons
    Counter statCheckFailures;  ///< failed comparisons (tamper events)
    Counter statUntrustedReads; ///< chunk reads from untrusted storage
    Counter statUntrustedWrites;///< chunk writes to untrusted storage
    Counter statCacheHits;
    Counter statCacheMisses;

  private:
    struct CacheEntry
    {
        std::vector<std::uint8_t> data;
        std::uint64_t dirtyMask = 0; ///< bit per block
        int pins = 0; ///< reentrant pin count; >0 blocks eviction
        std::list<std::uint64_t>::iterator lruIt;
    };

    unsigned blocksPerChunk() const
    {
        return static_cast<unsigned>(config_.chunkSize /
                                     config_.blockSize);
    }

    /** Authenticator of @p chunk as trusted state says it should be. */
    Slot trustedSlotOf(std::uint64_t chunk);

    /**
     * ReadAndCheck: @p chunk's RAM image, checked against @p expected
     * (trustedSlotOf(chunk), or a cached parent's slot) through
     * Untrusted::verified(). Throws IntegrityException on a mismatch.
     */
    std::vector<std::uint8_t> readAndCheck(std::uint64_t chunk,
                                           const Slot &expected);

    /**
     * Cached mode: return the trusted in-cache copy of @p chunk,
     * loading and verifying it on a miss. The returned reference is
     * invalidated by any subsequent cache operation.
     */
    CacheEntry &getCached(std::uint64_t chunk);

    /** Evict LRU entries until size() < capacity. */
    void evictIfNeeded();

    /** Write a dirty cache entry back to RAM and update its parent. */
    void writeBack(std::uint64_t chunk, CacheEntry &entry);

    /** Naive-mode store path: RMW a chunk and its ancestor slots. */
    void storeDirect(std::uint64_t chunk, std::uint64_t offset,
                     std::span<const std::uint8_t> in);

    /** Update one slot of a hash chunk through the proper mode. */
    void updateParentSlot(std::uint64_t child, const Slot &value);

    Storage &untrusted_;
    MerkleConfig config_;
    /** Per-shard geometry plus the on-chip root registers. */
    ShardRouter tree_;
    Authenticator auth_;
    ChunkStore chunks_;

    /** Trusted chunk cache (cached mode). */
    std::unordered_map<std::uint64_t, CacheEntry> cache_;
    std::list<std::uint64_t> lru_; // front = most recent
};

} // namespace cmt

#endif // CMT_VERIFY_MERKLE_MEMORY_H
