/**
 * @file
 * L2Controller: the scheme-agnostic half of the paper's central
 * artefact - the unified L2 cache + memory-integrity complex
 * (Sections 5.2-5.5, hardware of Section 6.1).
 *
 * The controller owns everything every scheme shares: the CacheArray,
 * MSHRs and demand-miss queueing, the write-back/eviction flow
 * (inclusion back-invalidation, clean/dirty accounting, the
 * allocation/eviction cascade), and per-word-valid store handling.
 * The trusted root registers and the VerifyBuffer occupancy gates
 * live in the ShardRouter (shard_router.h), one TreeContext per
 * shard, which the controller routes every address through. What a
 * scheme *does* on a demand miss or a dirty eviction is delegated to
 * an IntegrityPolicy (integrity_policy.h), created through
 * makeIntegrityPolicy(): NullPolicy (base), NaivePolicy,
 * CachedTreePolicy (c/m) or IncrementalPolicy (i).
 *
 * Functional model: the L2 lines and RAM carry real bytes and slots
 * carry real MD5/MAC values, so injected tampering is genuinely
 * detected. All functional state transitions happen atomically inside
 * event handlers; the timing machinery (bus, DRAM, hash engine,
 * read/write buffers) only decides *when* fills complete and checks
 * are announced. Verdicts are resolved against the RAM/L2 state at
 * the chunk's data-arrival instant.
 *
 * Speculation (Section 5.8): demand data is returned to the core as
 * soon as it arrives from DRAM; checks complete in the background.
 * `speculativeChecks = false` reproduces the blocking design for the
 * ablation study.
 */

#ifndef CMT_TREE_L2_CONTROLLER_H
#define CMT_TREE_L2_CONTROLLER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_array.h"
#include "mem/main_memory.h"
#include "support/callback.h"
#include "support/event.h"
#include "support/stats.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/hash_engine.h"
#include "tree/layout.h"
#include "tree/scheme.h"
#include "tree/shard_router.h"
#include "tree/verify_buffer.h"

namespace cmt
{

class IntegrityPolicy;
class L2Controller;

/**
 * Creates the integrity policy implementing @p Scheme behind an
 * L2Controller. The canonical factory is makeIntegrityPolicy()
 * (integrity_policy.h); tests inject instrumented policies here.
 */
using PolicyFactory =
    // Construction-time wiring, never the per-miss path.
    // cmt-analyze: allow(hot-path-alloc)
    std::function<std::unique_ptr<IntegrityPolicy>(Scheme,
                                                   L2Controller &)>;

/** L2 complex parameters (defaults follow Table 1). */
struct L2Params
{
    Scheme scheme = Scheme::kCached;
    /** L2 geometry. */
    std::uint64_t sizeBytes = 1 << 20;
    unsigned assoc = 4;
    unsigned blockSize = 64;
    /** Tree chunk size; == blockSize for c, k*blockSize for m/i. */
    std::uint64_t chunkSize = 64;
    /** Protected physical capacity (tree leaves). */
    std::uint64_t protectedSize = 4ULL << 30;
    /** L2 hit latency in cycles. */
    unsigned hitLatency = 10;
    /** Read/write hash-buffer entries (Section 6.5). */
    unsigned readBufferEntries = 16;
    unsigned writeBufferEntries = 16;
    /** Digest selection; kIncremental forces kXorMac. */
    Authenticator::Kind authKind = Authenticator::Kind::kMd5;
    bool timestamps = true;
    /** Section 5.3 optimisation: allocate store misses without
     *  fetching (per-word valid bits). Ablation toggle. */
    bool writeAllocNoFetch = true;
    /** Section 5.8: return data before its check completes. */
    bool speculativeChecks = true;
    /**
     * Shard dimension: the protected region splits into this many
     * independent subtrees, each with its own root registers and
     * VerifyBuffer (shard_router.h). 1 reproduces the paper's single
     * tree bit-for-bit.
     */
    unsigned shards = 1;
    /**
     * Extension (beyond the paper, toward AEGIS): encrypt data blocks
     * off-chip. Modelled as a pipelined decrypt latency on the miss
     * return path for data (not hash) blocks - one-time-pad style
     * counter-mode pads make throughput a non-issue, so latency is
     * the whole cost. The paper explicitly excludes privacy; this
     * toggle quantifies what adding it would cost on top of
     * verification.
     */
    bool encryptData = false;
    unsigned decryptLatency = 40;
    Key128 key{};
};

/** The L2 complex: cache array + pluggable integrity policy. */
class L2Controller
{
  public:
    /** Miss-completion token: inline-only and move-only
     *  (support/callback.h), so demand-path captures that outgrow the
     *  inline buffer fail to compile instead of heap-allocating. */
    using Callback = SmallCallback<void()>;

    /**
     * @param factory  creates the IntegrityPolicy for params.scheme;
     *                 empty selects makeIntegrityPolicy().
     */
    L2Controller(EventQueue &events, MainMemory &memory,
                 ChunkStore &ram, HashEngine &hasher,
                 ShardRouter &tree, const Authenticator &auth,
                 const L2Params &params, StatGroup &stats,
                 PolicyFactory factory = {});
    ~L2Controller();

    // ----- core-side interface (CPU physical addresses) --------------

    /**
     * Demand read of @p size bytes at @p cpu_addr (must lie within one
     * L2 block). @p on_data fires when the bytes are available to the
     * L1 - for misses that is DRAM arrival, before checks finish,
     * unless speculativeChecks is off.
     */
    void read(std::uint64_t cpu_addr, unsigned size, Callback on_data);

    /**
     * Write-through store of @p data (from the L1/core). Completes
     * immediately into the L2 (write-allocate without fetch).
     */
    void write(std::uint64_t cpu_addr,
               std::span<const std::uint8_t> data);

    /** Invoked with (cpu_addr, len) when inclusion evicts L1 copies.
     *  Bound once at system construction; back-invalidations are
     *  eviction-path, not the per-miss verify path. */
    // cmt-analyze: allow(hot-path-alloc)
    std::function<void(std::uint64_t, unsigned)> onBackInvalidate;

    /**
     * True while the miss path cannot accept a new demand miss
     * (hash buffers full); the core should retry next cycle.
     */
    bool demandStalled() const;

    /** Write every dirty line back (end-of-run bookkeeping). */
    void flushAllDirty();

    /**
     * Whole-tree audit: after a flushAllDirty, every touched chunk's
     * RAM image must match its parent slot (or root register).
     * @return false on any inconsistency. Tree schemes only.
     */
    bool verifyTreeConsistency();

    /** Number of integrity-check mismatches observed so far. */
    std::uint64_t integrityFailures() const
    {
        return stat_checkFailures.value();
    }

    /**
     * Checks still in flight across every shard (read- plus
     * write-buffer occupancy); crypto barrier instructions drain this
     * to zero before they commit (Section 5.8).
     */
    unsigned pendingChecks() const { return tree_.pendingChecks(); }

    /** One shard's geometry (identical across shards). */
    const TreeLayout &layout() const { return tree_.shardLayout(); }
    Scheme scheme() const { return params_.scheme; }

    // ----- statistics -------------------------------------------------
    Counter stat_reads;          ///< demand read accesses
    Counter stat_writes;         ///< demand store accesses
    Counter stat_readHits;
    Counter stat_readMisses;     ///< demand read misses (program data)
    Counter stat_writeMisses;    ///< store misses (allocations)
    Counter stat_demandBlockReads; ///< RAM block reads serving demand
    Counter stat_integrityBlockReads; ///< RAM reads added by checking
    Counter stat_evictionsDirty;
    Counter stat_evictionsClean;
    Counter stat_checks;         ///< chunk checks announced
    Counter stat_checkFailures;  ///< integrity exceptions raised
    Counter stat_hashChunkFetches; ///< recursive parent-chunk fetches
    Counter stat_bufferStallEvents; ///< demand misses queued on buffers

    // ----- policy-side interface --------------------------------------
    // Shared machinery the IntegrityPolicy implementations (and the
    // per-policy unit tests) drive directly. Everything here is
    // scheme-independent; policies contribute only the ancestor-walk /
    // chunk-fetch / write-back logic on top.

    EventQueue &events() { return events_; }
    MainMemory &memory() { return memory_; }
    ChunkStore &ram() { return ram_; }
    HashEngine &hasher() { return hasher_; }
    const Authenticator &auth() const { return auth_; }
    const L2Params &params() const { return params_; }
    CacheArray &array() { return array_; }
    /** Shard router: global tree geometry plus every shard's root
     *  registers and check buffers (TreeContext). */
    ShardRouter &tree() { return tree_; }

    unsigned blocksPerChunk() const
    {
        return static_cast<unsigned>(params_.chunkSize /
                                     params_.blockSize);
    }

    /** True while a demand MSHR is outstanding on @p block_addr. */
    bool mshrPending(std::uint64_t block_addr) const
    {
        return mshrs_.contains(block_addr);
    }

    /** Deliver data to every waiter of @p block_addr's MSHR. */
    void completeMshr(std::uint64_t block_addr);

    /** Complete the MSHRs of every block in @p chunk. */
    void completeMshrsOfChunk(std::uint64_t chunk);

    /** Allocate (or find) the L2 line for @p block_addr, handling the
     *  victim through the eviction machinery. */
    CacheArray::Line *allocateLine(std::uint64_t block_addr);

    /** Fill one block's invalid words from RAM bytes. */
    void fillBlockFromRam(std::uint64_t block_addr);

    /** Fill L2 lines of @p chunk from current RAM (invalid words
     *  only). */
    void fillChunkFromRam(std::uint64_t chunk);

    /** Resolve the trusted authenticator of @p chunk right now. */
    Slot expectedSlotNow(std::uint64_t chunk);

    /** True if the L2 holds valid words covering @p chunk's slot in
     *  its parent block. */
    bool parentSlotCachedNow(std::uint64_t chunk);

    /** Internal write access in RAM address space (slot updates). */
    void writeRam(std::uint64_t ram_addr,
                  std::span<const std::uint8_t> data);

    /** Assemble @p chunk's current RAM image. */
    std::vector<std::uint8_t> ramChunkImage(std::uint64_t chunk);

    /** As above, into a caller-owned scratch buffer (resized; keeps
     *  its capacity, so per-miss ancestor walks never reallocate). */
    void ramChunkImage(std::uint64_t chunk,
                       std::vector<std::uint8_t> &out);

    /** Re-admit deferred demand misses while buffer space lasts. */
    void retryPendingMisses();

    /** Debug-only invariant probe for the CMT_TRACE_CHUNK chunk. */
    void debugCheckInvariant(const char *tag);

    /** Nesting bookkeeping for in-flight eviction flows (debug
     *  gating); use FlowScope (integrity_policy.h), not these. */
    void flowEnter() { ++flowDepth_; }
    void flowExit()
    {
        if (--flowDepth_ == 0)
            debugCheckInvariant("cascade-exit");
    }

  private:
    struct Mshr
    {
        std::vector<Callback> waiters;
    };

    /** RAM address helpers. */
    std::uint64_t ramOf(std::uint64_t cpu_addr) const
    {
        return tree_.dataToRam(cpu_addr);
    }

    /** Internal read access in RAM address space. */
    void readRam(std::uint64_t ram_addr, std::uint64_t need_mask,
                 Callback on_data);

    /** Handle a demand miss on @p ram_addr's block. */
    void startMiss(std::uint64_t ram_addr, std::uint64_t need_mask,
                   Callback on_data);

    /** Back-invalidate, clean/dirty accounting, policy dispatch. */
    void handleEviction(CacheArray::Victim &&victim);

    EventQueue &events_;
    MainMemory &memory_;
    ChunkStore &ram_;
    HashEngine &hasher_;
    ShardRouter &tree_;
    const Authenticator &auth_;
    L2Params params_;
    CacheArray array_;

    std::map<std::uint64_t, Mshr> mshrs_; ///< by block address

    /** The scheme's miss/write-back logic (never null after init). */
    std::unique_ptr<IntegrityPolicy> policy_;

    /** Nesting depth of in-flight eviction flows (debug gating). */
    unsigned flowDepth_ = 0;
    unsigned evictionDepth_ = 0;
};

} // namespace cmt

#endif // CMT_TREE_L2_CONTROLLER_H
