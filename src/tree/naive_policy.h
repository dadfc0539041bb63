/**
 * @file
 * NaivePolicy: the uncached hash tree (Scheme::kNaive, Section 3).
 *
 * A checker sits between the L2 and RAM but hashes are never cached:
 * every demand miss reads and verifies the whole ancestor path up to
 * the on-chip root, and every dirty write-back re-reads, re-hashes
 * and rewrites that path. This is the scheme whose log(N) overhead
 * motivates the paper's cached designs.
 */

#ifndef CMT_TREE_NAIVE_POLICY_H
#define CMT_TREE_NAIVE_POLICY_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_array.h"
#include "support/arena.h"
#include "support/stats.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"
#include "tree/untrusted.h"

namespace cmt
{

/** Uncached hash tree: full ancestor path per miss and write-back. */
class NaivePolicy final : public IntegrityPolicy
{
  public:
    /**
     * The host-side digest memo (DESIGN.md §11) is a direct-mapped
     * table from a chunk to the last image digested for it and that
     * image's slot. It holds at most kDigestMemoMaxEntries entries and
     * kDigestMemoBytes of images, so large chunks get fewer entries.
     */
    static constexpr std::size_t kDigestMemoMaxEntries = 1024;
    static constexpr std::size_t kDigestMemoBytes = 256 * 1024;

    /** Memo entries for @p chunk_size: min(kDigestMemoMaxEntries,
     *  kDigestMemoBytes / chunk_size) rounded down to a power of two,
     *  and at least one. */
    static constexpr std::size_t
    digestMemoEntries(std::uint64_t chunk_size)
    {
        return std::max<std::size_t>(
            1, std::bit_floor(std::min<std::uint64_t>(
                   kDigestMemoMaxEntries, kDigestMemoBytes / chunk_size)));
    }

    explicit NaivePolicy(L2Controller &l2);

    void startDemandMiss(std::uint64_t block_addr) override;
    void evictDirty(const CacheArray::Victim &victim) override;

    /** Chunk digests the host computed (path verdicts and write-back
     *  path recomputes). */
    Counter stat_hostDigests;
    /** Verdict digests taken from the memo instead. */
    Counter stat_hostDigestsReused;

  private:
    /**
     * Per-demand-miss state, pooled (DESIGN.md §11 "Memory layout").
     * The path vector keeps its capacity across misses, and every
     * callback along the flow captures just the job pointer, so the
     * steady-state miss path performs no heap allocation. Write-backs
     * use the base class's pooled job instead.
     */
    struct MissJob
    {
        NaivePolicy *self = nullptr;
        std::uint64_t blockAddr = 0;
        std::uint64_t shard = 0;
        bool ok = true;
        /** Leaf chunk plus every ancestor, bottom-up. */
        std::vector<std::uint64_t> path;
    };

    /** Fill @p out with @p chunk plus every ancestor, bottom-up (the
     *  walk stays inside the chunk's shard by construction). */
    void walkPath(std::uint64_t chunk,
                  std::vector<std::uint64_t> &out) const;

    /**
     * Verdict on @p path (from walkPath) against current RAM: every
     * level's image against the slot its parent's image holds, the
     * top level against the root. Memoized levels are compared first,
     * the rest digested as one computeChain batch. Leaves the images
     * in imageScratch_.
     */
    bool pathVerdict(std::span<const std::uint64_t> path);

    /** All of @p job's chunk reads arrived: verdict + hash chain. */
    void missDataArrived(MissJob *job);
    /** The miss's hash chain completed: announce and release. */
    void missChecked(MissJob *job);

    /**
     * Write @p victim back and rebuild its path (evictPath_) up to
     * the root: merge the victim over the leaf image pathVerdict()
     * just checked, write it, then recompute and write each level's
     * slot into its parent.
     */
    void recomputePath(const CacheArray::Victim &victim);

    /** Memo entry of @p chunk (Fibonacci hashing, see the .cc). */
    std::size_t memoEntry(std::uint64_t chunk) const;
    /** The memoized slot of @p chunk if its memo image is byte-for-
     *  byte @p image, else null. */
    const Slot *memoFind(std::uint64_t chunk,
                         std::span<const std::uint8_t> image) const;
    /** Record that @p image, @p chunk's current bytes, digests to
     *  @p slot. */
    void memoFill(std::uint64_t chunk,
                  std::span<const std::uint8_t> image, const Slot &slot);

    SlabPool<MissJob> missJobs_;

    /**
     * The memo, as flat arrays. Empty when the slot is not a pure
     * function of the image (kXorMac folds in timestamp bits), which
     * leaves every digest to the authenticator.
     */
    std::vector<std::uint64_t> memoTag_;
    std::vector<Slot> memoSlot_;
    std::vector<std::uint8_t> memoImage_;
    /** 64 - log2(entries): the hash's top bits pick the entry. */
    int memoShift_ = 64;

    /** pathVerdict's images (alive across the batched digest call
     *  and, on a write-back, through recomputePath; capacity retained
     *  across misses and write-backs). */
    std::vector<Untrusted<std::vector<std::uint8_t>>> imageScratch_;
    std::vector<std::span<const std::uint8_t>> spanScratch_;
    std::vector<Slot> slotScratch_;
    /** Levels the memo did not serve, and their digests. */
    std::vector<std::size_t> digestLevels_;
    std::vector<Slot> digestScratch_;
    /** evictDirty's chunk path, leaf first. */
    std::vector<std::uint64_t> evictPath_;
};

} // namespace cmt

#endif // CMT_TREE_NAIVE_POLICY_H
