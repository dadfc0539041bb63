/**
 * @file
 * ServeStore: one integrity-protected memory owned by the daemon.
 *
 * A store pairs a sparse BackingStore (the untrusted RAM image) with a
 * MerkleMemory whose sharded hash tree and root registers make every
 * read verified.
 *
 * Ownership: a store has no lock. While the daemon runs, its one
 * epoll loop thread (serve/server.h) owns every store and runs each
 * request to completion, so the tree the clients observe is the
 * serialization of their requests in execution order. Any other
 * caller (daemon startup and shutdown, tests reaching in through
 * memoryForTest()) touches a store only while no request is in
 * flight. TSan (the tsan preset) checks that claim at run time.
 *
 * Writes arrive in batches: the server passes each run of pipelined
 * writes to one store to applyWriteBatch(), which groups the batch by
 * destination shard. Shards partition the address space
 * (tree/shard_router.h), so two writes to different shards never
 * alias and replaying them shard-by-shard is equivalence-preserving,
 * while writes within one shard keep their arrival order. Grouping
 * matters because consecutive same-shard updates reuse the shard's
 * hot ancestor chunks in the trusted cache instead of ping-ponging
 * between subtrees.
 *
 * Persistence goes through verify/persistence.h: the image first, then
 * the roots, each individually atomic (tmp + rename). A crash between
 * the two leaves image and roots from different epochs, which load
 * rejects as an integrity mismatch - fail-safe, never fail-open.
 */

#ifndef CMT_SERVE_STORE_H
#define CMT_SERVE_STORE_H

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mem/backing_store.h"
#include "verify/merkle_memory.h"

namespace cmt::serve
{

/** One queued write (absolute address into the protected region). */
struct WriteOp
{
    std::uint64_t addr = 0;
    std::vector<std::uint8_t> data;
};

/** Outcome of one store operation, mirroring protocol Status. */
enum class StoreOutcome
{
    kOk,
    /** Out-of-range address, zero/oversized length, bad arguments. */
    kBadRequest,
    /** Integrity verification failed while serving the request. */
    kCorrupt,
    /** Host-side failure (e.g. persistence I/O error). */
    kFailed,
};

/** A named, integrity-verified memory. */
class ServeStore
{
  public:
    /**
     * @param name    store label (reports, state file naming)
     * @param config  tree geometry; shards > 1 enables shard batching
     */
    ServeStore(std::string name, const MerkleConfig &config);

    const std::string &name() const { return name_; }

    /** Protected capacity in bytes. */
    std::uint64_t size() const { return size_; }

    /**
     * Verified read of [addr, addr+len). On kCorrupt, @p err carries
     * the integrity failure message and @p out is unspecified.
     */
    StoreOutcome read(std::uint64_t addr, std::uint32_t len,
                      std::vector<std::uint8_t> *out, std::string *err);

    /**
     * Apply @p ops, grouped by destination
     * shard (arrival order preserved within each shard). @p per_op is
     * resized to ops.size() and filled with the fate of each op by its
     * original index: kOk once applied, kCorrupt for the op whose tree
     * update hit tampering, kFailed for ops abandoned after a failure.
     * @return kOk, or the first failure outcome with @p err set.
     */
    StoreOutcome applyWriteBatch(std::span<const WriteOp> ops,
                                 std::vector<StoreOutcome> *per_op,
                                 std::string *err);

    /**
     * Walk the whole tree and check every touched chunk against its
     * parent. @return false when any check fails.
     */
    [[nodiscard]] bool verifyAll();

    /** Write back every dirty cached chunk (tree fully in RAM). */
    void sync();

    /** Bind the on-disk home of this store's snapshot. */
    void setStatePaths(const std::string &image_path,
                       const std::string &roots_path);

    /**
     * Persist the current state through the crash-safe persistence
     * layer: image first, then roots. Requires setStatePaths().
     * @return false with @p err set on I/O failure (the daemon stays
     * up; the previous snapshot on disk is untouched).
     */
    [[nodiscard]] bool saveState(std::string *err);

    /**
     * Restore the snapshot bound by setStatePaths() if both files
     * exist. @p loaded reports whether a snapshot was found; a found
     * but unloadable snapshot (geometry mismatch, torn image/roots
     * pair, tampering) returns false with @p err set.
     */
    [[nodiscard]] bool loadStateIfPresent(bool *loaded,
                                          std::string *err);

    /**
     * Test-only access to the verified memory so tamper tests can
     * reach the untrusted RAM image through memory().ram(). Callers
     * must be the only thread touching the store.
     */
    MerkleMemory &memoryForTest() { return memory_; }

    // --- counters (lock-free reads for kStats) -----------------------
    std::uint64_t readOps() const { return readOps_.load(); }
    std::uint64_t writeOps() const { return writeOps_.load(); }
    std::uint64_t corruptions() const { return corruptions_.load(); }

  private:
    /** Apply one op; records its fate in (*per_op)[index]. */
    StoreOutcome applyOne(const WriteOp &op, std::size_t index,
                          std::vector<StoreOutcome> *per_op,
                          std::string *err);

    const std::string name_;
    std::string imagePath_;
    std::string rootsPath_;

    /** Untrusted RAM image (adversary-accessible in the model). */
    BackingStore backing_;
    /** The verified view; every client byte moves through here. */
    MerkleMemory memory_;
    /** Geometry is immutable after build. */
    const std::uint64_t size_;
    const unsigned shards_;

    std::atomic<std::uint64_t> readOps_{0};
    std::atomic<std::uint64_t> writeOps_{0};
    std::atomic<std::uint64_t> corruptions_{0};
};

} // namespace cmt::serve

#endif // CMT_SERVE_STORE_H
