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

/** One write for applyWriteBatch() (absolute address into the
 *  protected region). */
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
    /** Not applied: applyWriteBatch() stopped at an earlier op. */
    kFailed,
};

/** A named, integrity-verified memory. */
class ServeStore
{
  public:
    /**
     * @param name    store label (reports, state file naming)
     * @param config  tree geometry and trusted-cache size
     */
    ServeStore(std::string name, const MerkleConfig &config);

    const std::string &name() const { return name_; }

    /** Protected capacity in bytes. */
    std::uint64_t size() const { return memory_.size(); }

    /**
     * Verified read of [addr, addr+len). On kCorrupt, @p err carries
     * the integrity failure message and @p out is unspecified.
     */
    StoreOutcome read(std::uint64_t addr, std::uint32_t len,
                      std::vector<std::uint8_t> *out, std::string *err);

    /**
     * Verified write of @p data at [addr, addr+data.size()). On
     * kCorrupt, @p err carries the integrity failure message; a write
     * spanning chunks keeps the chunks stored before the failing one.
     */
    StoreOutcome write(std::uint64_t addr,
                       std::span<const std::uint8_t> data,
                       std::string *err);

    /**
     * Apply @p ops one by one through write(), in order, stopping at
     * the first failure. @p per_op is resized to ops.size() and
     * filled with each op's fate: kOk once applied, the failing op's
     * outcome, and kFailed for the ops after it.
     * @return kOk, or the first failure outcome with @p err set.
     * Kept only for perfbench's in-process replay.
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
    const std::string name_;
    std::string imagePath_;
    std::string rootsPath_;

    /** Untrusted RAM image (adversary-accessible in the model). */
    BackingStore backing_;
    /** The verified view; every client byte moves through here. */
    MerkleMemory memory_;

    std::atomic<std::uint64_t> readOps_{0};
    std::atomic<std::uint64_t> writeOps_{0};
    std::atomic<std::uint64_t> corruptions_{0};
};

} // namespace cmt::serve

#endif // CMT_SERVE_STORE_H
