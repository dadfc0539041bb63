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

#include "cache/cache_array.h"
#include "support/arena.h"
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

    /**
     * ReadAndCheckChunk (Section 5.4): read @p chunk's uncached
     * blocks, resolve its trusted parent authenticator (recursively
     * fetching the parent chunk if its slot is not cached), verify,
     * and fill the L2. @p demand marks a fetch serving a demand miss.
     */
    void fetchChunk(std::uint64_t chunk, bool demand);

  protected:
    /**
     * The Write algorithm's publish step: @p value lands in @p chunk's
     * parent slot in the (trusted) cache and flows to RAM when the
     * parent is itself evicted - or in the root register.
     */
    void publishSlot(std::uint64_t chunk, const Slot &value);

  private:
    /**
     * Deferred write-back tail, pooled (DESIGN.md §11): carries the
     * hash/write parameters across the optional missing-data RAM read
     * so its callback captures one pointer instead of a 30-byte pack
     * that would push std::function onto the heap.
     */
    struct WriteBackJob
    {
        CachedTreePolicy *self = nullptr;
        std::uint64_t base = 0;
        std::uint64_t shard = 0;
        unsigned dirtyBlocks = 0;
        bool extraCheck = false;
    };

    /** The missing-data read of a write-back completed. */
    void writeBackReadDone(WriteBackJob *job);

    /** Write-back digest chain + dirty block writes. */
    void writeBackHashes(std::uint64_t base, std::uint64_t shard,
                         unsigned dirty_blocks, bool extra_check);
    // ----- in-flight chunk verification ------------------------------
    struct ChunkFetch
    {
        std::uint64_t chunk = 0;
        unsigned pendingReads = 0;
        bool dataArrived = false;
        bool hashDone = false;
        bool parentReady = false;
        bool verdictOk = true;
        bool demand = false; ///< occupies a read-buffer entry
        /** Fetches of children waiting on this chunk's data. */
        std::vector<std::uint64_t> dependents;
    };

    /** Chunk-fetch completion plumbing. */
    void chunkDataArrived(std::uint64_t chunk);
    void chunkMaybeComplete(std::uint64_t chunk);

    std::map<std::uint64_t, ChunkFetch> fetches_; ///< by chunk index
    SlabPool<WriteBackJob> writeBackJobs_;
    /** A chunk's RAM image for one verdict, one write-back merge or
     *  one slot recompute; each use is over before any nested flow
     *  can start. */
    Untrusted<std::vector<std::uint8_t>> imageScratch_;
};

} // namespace cmt

#endif // CMT_TREE_CACHED_TREE_POLICY_H
