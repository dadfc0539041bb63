#include "tree/naive_policy.h"

#include <algorithm>
#include <bit>

#include "cache/cache_array.h"
#include "tree/authenticator.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"
#include "tree/layout.h"
#include "tree/untrusted.h"

namespace cmt
{

namespace
{

/** Memo tag of an empty entry; no chunk index reaches it. */
constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};

} // namespace

NaivePolicy::NaivePolicy(L2Controller &l2)
    : IntegrityPolicy(l2),
      stat_hostDigests(l2.stats(), "naive.host_digests",
                       "chunk digests computed on the host"),
      stat_hostDigestsReused(l2.stats(), "naive.host_digests_reused",
                             "miss digests reused from the exact memo")
{
    if (auth_.kind() != Authenticator::Kind::kXorMac) {
        const std::size_t entries = digestMemoEntries(params_.chunkSize);
        memoTag_.assign(entries, kNoChunk);
        memoSlot_.resize(entries);
        memoImage_.resize(entries * params_.chunkSize);
        memoShift_ = 64 - std::countr_zero(entries);
    }
}

void
NaivePolicy::walkPath(std::uint64_t chunk,
                      std::vector<std::uint64_t> &out) const
{
    out.clear();
    out.push_back(chunk);
    for (std::int64_t cur = tree_.parentOf(chunk); cur >= 0;
         cur = tree_.parentOf(static_cast<std::uint64_t>(cur)))
        out.push_back(static_cast<std::uint64_t>(cur));
}

void
NaivePolicy::startDemandMiss(std::uint64_t block_addr)
{
    const std::uint64_t chunk = tree_.chunkOf(block_addr);
    const std::uint64_t shard = tree_.shardOfChunk(chunk);
    tree_.context(shard).buffers.acquireRead();

    // Read the whole leaf chunk plus every ancestor hash chunk.
    MissJob *job = missJobs_.acquire();
    job->self = this;
    job->blockAddr = block_addr;
    job->shard = shard;
    job->ok = true;
    walkPath(chunk, job->path);
    const unsigned levels = static_cast<unsigned>(job->path.size());
    ++l2_.stat_demandBlockReads;
    l2_.stat_integrityBlockReads += levels - 1;

    // Only the last arrival acts: the verdict samples RAM then, so
    // the whole path is one chained read with one event.
    memory_.readChain(static_cast<unsigned>(params_.chunkSize), levels,
                      [job]() { job->self->missDataArrived(job); });
}

bool
NaivePolicy::pathVerdict(std::span<const std::uint64_t> path)
{
    // Each level's expected slot comes from its parent's image, read
    // one level up in the same pass; the top level checks the root.
    const std::size_t levels = path.size();
    if (imageScratch_.size() < levels)
        imageScratch_.resize(levels);
    slotScratch_.clear();
    for (std::size_t i = 0; i < levels; ++i)
        ram_.readChunk(path[i], imageScratch_[i]);
    for (std::size_t i = 0; i + 1 < levels; ++i) {
        const std::uint8_t *slot =
            imageScratch_[i + 1].forCheck().data() +
            tree_.slotIndexOf(path[i]) * TreeLayout::kSlotSize;
        Slot &expected = slotScratch_.emplace_back();
        std::copy(slot, slot + TreeLayout::kSlotSize, expected.begin());
    }
    slotScratch_.push_back(tree_.rootOf(path[levels - 1]));

    spanScratch_.clear();
    if (memoTag_.empty()) {
        for (std::size_t i = 0; i < levels; ++i)
            spanScratch_.push_back(imageScratch_[i].forCheck());
        stat_hostDigests += levels;
        return auth_.verifyChain(spanScratch_, slotScratch_);
    }

    // A level whose image is byte-identical to the one its slot was
    // last computed from reuses that slot; the rest go to the
    // authenticator as one batch. Every level's digest is then
    // compared as before, so the verdict is the same boolean.
    bool ok = true;
    digestLevels_.clear();
    for (std::size_t i = 0; i < levels; ++i) {
        const std::vector<std::uint8_t> &image = imageScratch_[i].forCheck();
        if (const Slot *slot = memoFind(path[i], image)) {
            ok = ok && *slot == slotScratch_[i];
        } else {
            digestLevels_.push_back(i);
            spanScratch_.push_back(image);
        }
    }
    digestScratch_.resize(digestLevels_.size());
    auth_.computeChain(spanScratch_, digestScratch_);
    for (std::size_t k = 0; k < digestLevels_.size(); ++k) {
        const std::size_t i = digestLevels_[k];
        ok = ok && digestScratch_[k] == slotScratch_[i];
        memoFill(path[i], imageScratch_[i].forCheck(), digestScratch_[k]);
    }
    stat_hostDigests += digestLevels_.size();
    stat_hostDigestsReused += levels - digestLevels_.size();
    return ok;
}

void
NaivePolicy::missDataArrived(MissJob *job)
{
    job->ok = pathVerdict(job->path);

    // Only the demand data block enters the cache: the naive
    // machinery never caches hashes.
    l2_.fillBlockFromRam(job->blockAddr);
    if (params_.speculativeChecks)
        l2_.completeMshr(job->blockAddr);

    // One digest per chunk in the path, admitted as a single
    // pipelined chain; its completion announces the check and frees
    // the buffer entry.
    hasher_.hashChain(static_cast<unsigned>(params_.chunkSize),
                      static_cast<unsigned>(job->path.size()),
                      [job]() { job->self->missChecked(job); },
                      job->shard);
}

void
NaivePolicy::missChecked(MissJob *job)
{
    ++l2_.stat_checks;
    if (!job->ok)
        ++l2_.stat_checkFailures;
    if (!params_.speculativeChecks)
        l2_.completeMshr(job->blockAddr);
    const std::uint64_t shard = job->shard;
    missJobs_.release(job);
    tree_.context(shard).buffers.releaseRead();
    l2_.retryPendingMisses();
}

void
NaivePolicy::evictDirty(const CacheArray::Victim &victim)
{
    const std::uint64_t chunk = tree_.chunkOf(victim.blockAddr);
    beginWriteBack(chunk);

    // Functional: check the old path, then merge, write, and rebuild
    // it now. Without the check, the rebuild would hash a tampered
    // sibling slot into the root. The timing below already charges
    // the path's reads and digests, so only a failure counts.
    walkPath(chunk, evictPath_);
    if (!pathVerdict(evictPath_))
        ++l2_.stat_checkFailures;
    recomputePath(victim);
    const auto ancestors = static_cast<unsigned>(evictPath_.size() - 1);

    // Timing: read every ancestor (read-modify-write) plus the block's
    // missing words if it was partial, hash every level as one chain,
    // write the block plus every ancestor chunk.
    const bool partial = victim.validWords != array_.fullMask();
    const unsigned reads = ancestors + (partial ? 1 : 0);
    l2_.stat_integrityBlockReads += reads;
    const auto chunk_bytes = static_cast<unsigned>(params_.chunkSize);
    finishWriteBack(victim.blockAddr, {.reads = reads,
                                       .readBytes = chunk_bytes,
                                       .digests = ancestors + 1,
                                       .digestBytes = chunk_bytes,
                                       .blockWrites = 1,
                                       .chunkWrites = ancestors});
}

void
NaivePolicy::recomputePath(const CacheArray::Victim &victim)
{
    const Slot zero{};
    Slot slot{};
    for (std::size_t i = 0;; ++i) {
        const std::uint64_t cur = evictPath_[i];
        // The old path pathVerdict() just checked, each level patched
        // with what this write-back writes to RAM, so it equals RAM
        // without a read back.
        std::vector<std::uint8_t> &image = imageScratch_[i].unverified();
        if (i == 0) {
            const std::span<std::uint8_t> block =
                std::span(image).subspan(
                    victim.blockAddr - tree_.chunkAddr(cur),
                    params_.blockSize);
            mergeVictim(victim, block);
            ram_.write(victim.blockAddr, block);
        } else {
            const std::uint64_t index = tree_.slotIndexOf(evictPath_[i - 1]);
            std::copy(slot.begin(), slot.end(),
                      image.begin() + static_cast<std::ptrdiff_t>(
                                          index * TreeLayout::kSlotSize));
            ram_.writeSlot(cur, index, slot);
        }
        slot = auth_.compute(image, zero);
        ++stat_hostDigests;
        if (!memoTag_.empty())
            memoFill(cur, image, slot);
        if (i + 1 == evictPath_.size()) {
            tree_.rootOf(cur) = slot;
            return;
        }
    }
}

/**
 * Fibonacci hashing. The ancestors of nearby leaves are chunk / arity^k
 * apart, which a plain modulo folds onto each other (81 % of miss
 * digests reused on swim, against 86 %).
 */
std::size_t
NaivePolicy::memoEntry(std::uint64_t chunk) const
{
    // A one-entry memo would shift by 64, which C++ leaves undefined.
    if (memoShift_ == 64)
        return 0;
    return static_cast<std::size_t>(
        (chunk * 0x9E3779B97F4A7C15ull) >> memoShift_);
}

const Slot *
NaivePolicy::memoFind(std::uint64_t chunk,
                      std::span<const std::uint8_t> image) const
{
    const std::size_t entry = memoEntry(chunk);
    if (memoTag_[entry] != chunk)
        return nullptr;
    const std::uint8_t *stored =
        memoImage_.data() + entry * params_.chunkSize;
    if (!std::equal(image.begin(), image.end(), stored))
        return nullptr;
    return &memoSlot_[entry];
}

void
NaivePolicy::memoFill(std::uint64_t chunk,
                      std::span<const std::uint8_t> image,
                      const Slot &slot)
{
    const std::size_t entry = memoEntry(chunk);
    memoTag_[entry] = chunk;
    memoSlot_[entry] = slot;
    std::copy(image.begin(), image.end(),
              memoImage_.begin() +
                  static_cast<std::ptrdiff_t>(entry * params_.chunkSize));
}

} // namespace cmt
