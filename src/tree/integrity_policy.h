/**
 * @file
 * IntegrityPolicy: the scheme-specific half of the L2 complex.
 *
 * The L2Controller (l2_controller.h) owns the cache array, MSHRs and
 * eviction flow; an IntegrityPolicy decides what a demand miss and a
 * dirty write-back *mean* for memory verification. Four
 * implementations cover the paper's evaluated schemes:
 *
 *  - NullPolicy        (null_policy.h)        : base, no verification.
 *  - NaivePolicy       (naive_policy.h)       : uncached hash tree;
 *    every miss verifies the whole ancestor path.
 *  - CachedTreePolicy  (cached_tree_policy.h) : the c/m algorithms -
 *    hash chunks live in the L2, a cached chunk is a trusted root.
 *  - IncrementalPolicy (incremental_policy.h) : the i algorithm -
 *    incremental XOR-MAC write-backs over the cached tree.
 *
 * Policies are created through makeIntegrityPolicy(); a fifth scheme
 * means one new subclass plus one factory case (see CONTRIBUTING.md).
 */

#ifndef CMT_TREE_INTEGRITY_POLICY_H
#define CMT_TREE_INTEGRITY_POLICY_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache_array.h"
#include "mem/main_memory.h"
#include "support/arena.h"
#include "support/event.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/hash_engine.h"
#include "tree/l2_controller.h"
#include "tree/scheme.h"
#include "tree/shard_router.h"

namespace cmt
{

/**
 * Scheme-specific miss/write-back behaviour behind an L2Controller.
 *
 * The base class captures references to the controller's shared
 * machinery (event queue, bus, RAM image, hash engine, shard router,
 * cache array) so subclasses read like the paper's algorithms rather
 * than plumbing. Root registers and check buffers are reached through
 * the router's per-shard TreeContext, never directly.
 */
class IntegrityPolicy
{
  public:
    virtual ~IntegrityPolicy() = default;

    IntegrityPolicy(const IntegrityPolicy &) = delete;
    IntegrityPolicy &operator=(const IntegrityPolicy &) = delete;

    /**
     * Launch the scheme's fetch machinery for a fresh demand MSHR on
     * @p block_addr. Data delivery happens through
     * L2Controller::completeMshr() / completeMshrsOfChunk().
     */
    virtual void startDemandMiss(std::uint64_t block_addr) = 0;

    /**
     * Write @p victim (a dirty line leaving the array, or a line being
     * flushed) back to RAM, updating whatever authenticators the
     * scheme maintains. Clean/dirty accounting and back-invalidation
     * already happened in the controller.
     */
    virtual void evictDirty(const CacheArray::Victim &victim) = 0;

    /**
     * True when a store miss on @p ram_addr allocates with only the
     * stored words valid instead of fetching the block (Section 5.3).
     * Slot publishes from the integrity machinery always take the
     * no-fetch path: the Write algorithm's fetch is modelled at
     * eviction time.
     */
    virtual bool
    storeMissAllocatesWithoutFetch(std::uint64_t ram_addr) const
    {
        return tree_.isHashChunk(tree_.chunkOf(ram_addr)) ||
               params_.writeAllocNoFetch;
    }

    /**
     * False only for the unverified baseline: gates VerifyBuffer
     * admission control and the end-of-run tree audit.
     */
    virtual bool verifiesIntegrity() const { return true; }

  protected:
    explicit IntegrityPolicy(L2Controller &l2);

    /**
     * The timing half of one write-back, the same shape for every
     * tree scheme: RAM reads of what the chip lacks, a digest chain
     * through the hash unit, then the writes.
     */
    struct WriteBackCost
    {
        /** Chained RAM reads, readBytes each (0: none). */
        unsigned reads = 0;
        unsigned readBytes = 0;
        /** Digests in the chain, digestBytes each. */
        unsigned digests = 0;
        unsigned digestBytes = 0;
        /** Block-sized writes from the write-back's block on. */
        unsigned blockWrites = 0;
        /** Chunk-sized writes, one per ancestor chunk, bottom-up. */
        unsigned chunkWrites = 0;
    };

    /** Take the write-buffer entry of @p chunk's shard (Section 6.5)
     *  for a write-back that finishWriteBack() later frees. */
    void beginWriteBack(std::uint64_t chunk);

    /**
     * Schedule the timing of the write-back of @p block_addr begun by
     * beginWriteBack(): @p cost's reads as one chain, then its digest
     * chain on the shard's hash lane and its writes. The chain's
     * completion frees the write-buffer entry and re-admits deferred
     * misses. With no reads the chain is issued now.
     */
    void finishWriteBack(std::uint64_t block_addr,
                         const WriteBackCost &cost);

    L2Controller &l2_;
    EventQueue &events_;
    MainMemory &memory_;
    ChunkStore &ram_;
    HashEngine &hasher_;
    /** Global geometry + per-shard roots and check buffers. All slot
     *  resolution, ancestor walks and root access go through here. */
    ShardRouter &tree_;
    const Authenticator &auth_;
    const L2Params &params_;
    CacheArray &array_;

  private:
    /** finishWriteBack()'s state across its reads, pooled so the read
     *  callback captures one pointer. */
    struct WriteBackJob
    {
        IntegrityPolicy *self = nullptr;
        std::uint64_t blockAddr = 0;
        WriteBackCost cost;
    };

    /** The write-back's reads arrived: digest chain, then writes. */
    void writeBackReadsDone(std::uint64_t block_addr,
                            const WriteBackCost &cost);

    SlabPool<WriteBackJob> writeBackJobs_;
};

/** Copy @p victim's valid words over @p block, the RAM image of its
 *  block. */
void mergeVictim(const CacheArray::Victim &victim,
                 std::span<std::uint8_t> block);

/** Create the policy implementing @p scheme behind @p l2 (the
 *  canonical PolicyFactory). */
std::unique_ptr<IntegrityPolicy> makeIntegrityPolicy(Scheme scheme,
                                                     L2Controller &l2);

} // namespace cmt

#endif // CMT_TREE_INTEGRITY_POLICY_H
