/**
 * @file
 * CachedTreePolicy: the paper's c/m algorithms (Scheme::kCached,
 * Sections 5.4-5.5).
 *
 * Hash chunks are cached in the L2 itself, and a cached chunk is the
 * trusted root of its subtree: a miss runs ReadAndCheckChunk, walking
 * up only until it finds a cached ancestor (often the immediate
 * parent), and a dirty write-back recomputes the chunk's
 * authenticator and publishes it into the parent's cached slot.
 * chunkSize == blockSize gives scheme c, chunkSize == k*blockSize
 * gives scheme m.
 *
 * IncrementalPolicy derives from this class: the i algorithm shares
 * the whole miss path and replaces only the write-back.
 */

#ifndef CMT_TREE_CACHED_TREE_POLICY_H
#define CMT_TREE_CACHED_TREE_POLICY_H

#include <map>
#include <vector>

#include "cache/cache_array.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"
#include "tree/untrusted.h"

namespace cmt
{

/** Cached hash tree: ReadAndCheckChunk misses, Write write-backs. */
class CachedTreePolicy : public IntegrityPolicy
{
  public:
    explicit CachedTreePolicy(L2Controller &l2) : IntegrityPolicy(l2) {}

    void startDemandMiss(std::uint64_t block_addr) override;
    void evictDirty(const CacheArray::Victim &victim) override;

  protected:
    /**
     * ReadAndCheckChunk (Section 5.4): read @p chunk's uncached
     * blocks, resolve its trusted parent authenticator (recursively
     * fetching the parent chunk if its slot is not cached), verify,
     * and fill the L2.
     */
    void fetchChunk(std::uint64_t chunk);

    /**
     * The Write algorithm's publish step: @p value lands in @p chunk's
     * parent slot in the (trusted) cache and flows to RAM when the
     * parent is itself evicted - or in the root register.
     */
    void publishSlot(std::uint64_t chunk, const Slot &value);

    /**
     * Make the line holding @p chunk's parent slot resident before a
     * write-back reads, updates and publishes that slot, so nothing
     * between the read and the publish allocates (and so runs a nested
     * write-back that could clobber or be clobbered by the update).
     */
    void makeParentSlotResident(std::uint64_t chunk);

    /**
     * Timing of a write-back's read of @p chunk's parent slot through
     * ReadAndCheck: free when the slot was cached (@p slot_was_cached,
     * sampled before makeParentSlotResident()), else a recursive fetch
     * of the parent chunk.
     */
    void chargeParentSlotRead(std::uint64_t chunk, bool slot_was_cached);

  private:
    // ----- in-flight chunk verification ------------------------------
    struct ChunkFetch
    {
        unsigned pendingReads = 0;
        bool dataArrived = false;
        bool hashDone = false;
        bool parentReady = false;
        bool verdictOk = true;
        /** Fetches of children waiting on this chunk's data. */
        std::vector<std::uint64_t> dependents;
    };

    /** Chunk-fetch completion plumbing. */
    void chunkDataArrived(std::uint64_t chunk);
    void chunkMaybeComplete(std::uint64_t chunk);

    std::map<std::uint64_t, ChunkFetch> fetches_; ///< by chunk index
    /** A chunk's RAM image for one verdict, one write-back merge or
     *  one slot recompute; each use is over before any nested flow
     *  can start. */
    Untrusted<std::vector<std::uint8_t>> imageScratch_;
};

} // namespace cmt

#endif // CMT_TREE_CACHED_TREE_POLICY_H
