#include "tree/naive_policy.h"

#include <algorithm>

#include "cache/cache_array.h"
#include "tree/integrity_policy.h"
#include "tree/layout.h"

namespace cmt
{

void
NaivePolicy::startDemandMiss(std::uint64_t block_addr)
{
    const std::uint64_t chunk = tree_.chunkOf(block_addr);
    const std::uint64_t shard = tree_.shardOfChunk(chunk);
    tree_.context(shard).buffers.acquireRead();

    // Read the whole leaf chunk plus every ancestor hash chunk (the
    // walk stays inside the chunk's shard by construction).
    MissJob *job = missJobs_.acquire();
    job->self = this;
    job->blockAddr = block_addr;
    job->shard = shard;
    job->ok = true;
    job->path.clear();
    job->path.push_back(chunk);
    std::int64_t cur = tree_.parentOf(chunk);
    while (cur >= 0) {
        job->path.push_back(static_cast<std::uint64_t>(cur));
        cur = tree_.parentOf(static_cast<std::uint64_t>(cur));
    }
    job->pendingReads = static_cast<unsigned>(job->path.size());

    for (std::size_t i = 0; i < job->path.size(); ++i) {
        if (i == 0)
            ++l2_.stat_demandBlockReads;
        else
            ++l2_.stat_integrityBlockReads;
        memory_.read(tree_.chunkAddr(job->path[i]),
                     static_cast<unsigned>(params_.chunkSize),
                     [job]() {
                         if (--job->pendingReads == 0)
                             job->self->missDataArrived(job);
                     });
    }
}

void
NaivePolicy::missDataArrived(MissJob *job)
{
    // Verdict: the whole chain bottom-up against current RAM, batched
    // through the authenticator's interleaved multi-stream digest.
    // Each level's expected slot comes from its parent's image, read
    // one level up in the same pass; the top level checks the root.
    const std::size_t levels = job->path.size();
    if (imageScratch_.size() < levels)
        imageScratch_.resize(levels);
    spanScratch_.clear();
    slotScratch_.clear();
    for (std::size_t i = 0; i < levels; ++i) {
        l2_.ramChunkImage(job->path[i], imageScratch_[i]);
        spanScratch_.push_back(imageScratch_[i]);
    }
    for (std::size_t i = 0; i + 1 < levels; ++i) {
        const std::uint8_t *slot =
            imageScratch_[i + 1].data() +
            tree_.slotIndexOf(job->path[i]) * TreeLayout::kSlotSize;
        Slot &expected = slotScratch_.emplace_back();
        std::copy(slot, slot + TreeLayout::kSlotSize, expected.begin());
    }
    slotScratch_.push_back(tree_.rootOf(job->path[levels - 1]));
    job->ok = auth_.verifyChain(spanScratch_, slotScratch_);

    // Only the demand data block enters the cache: the naive
    // machinery never caches hashes.
    l2_.fillBlockFromRam(job->blockAddr);
    if (params_.speculativeChecks)
        l2_.completeMshr(job->blockAddr);

    // One digest per chunk in the path, admitted as a single
    // pipelined chain; its completion announces the check and frees
    // the buffer entry.
    hasher_.hashChain(static_cast<unsigned>(params_.chunkSize),
                      static_cast<unsigned>(levels),
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
    FlowScope guard(l2_);
    const std::uint64_t chunk = tree_.chunkOf(victim.blockAddr);
    const std::uint64_t shard = tree_.shardOfChunk(chunk);
    tree_.context(shard).buffers.acquireWrite();

    // Functional: merge, write, and rebuild the ancestor path now.
    const std::vector<std::uint8_t> merged =
        mergeVictimOverRam(victim, ram_, params_.blockSize);
    ram_.write(victim.blockAddr, merged);
    const unsigned ancestors = recomputePath(chunk);

    // Timing: read every ancestor (read-modify-write) plus the block's
    // missing words if it was partial, hash every level, write
    // everything back.
    const bool partial = victim.validWords != array_.fullMask();
    const unsigned reads = ancestors + (partial ? 1 : 0);
    l2_.stat_integrityBlockReads += reads;

    EvictJob *job = evictJobs_.acquire();
    job->self = this;
    job->chunk = chunk;
    job->shard = shard;
    job->ancestors = ancestors;
    job->pendingReads = reads;

    if (reads == 0) {
        evictReadsDone(job);
        return;
    }
    std::int64_t cur = tree_.parentOf(chunk);
    for (unsigned i = 0; i < reads; ++i) {
        // Addresses only matter for bus occupancy; use the path.
        const std::uint64_t addr =
            cur >= 0 ? tree_.chunkAddr(static_cast<std::uint64_t>(cur))
                     : victim.blockAddr;
        if (cur >= 0)
            cur = tree_.parentOf(static_cast<std::uint64_t>(cur));
        memory_.read(addr, static_cast<unsigned>(params_.chunkSize),
                     [job]() {
                         if (--job->pendingReads == 0)
                             job->self->evictReadsDone(job);
                     });
    }
}

void
NaivePolicy::evictReadsDone(EvictJob *job)
{
    // One chain covers the block plus every ancestor level.
    hasher_.hashChain(static_cast<unsigned>(params_.chunkSize),
                      job->ancestors + 1,
                      [job]() { job->self->evictChecked(job); },
                      job->shard);

    // Write the block plus every ancestor chunk.
    memory_.write(tree_.chunkAddr(job->chunk), params_.blockSize);
    std::int64_t cur = tree_.parentOf(job->chunk);
    while (cur >= 0) {
        memory_.write(tree_.chunkAddr(static_cast<std::uint64_t>(cur)),
                      static_cast<unsigned>(params_.chunkSize));
        cur = tree_.parentOf(static_cast<std::uint64_t>(cur));
    }
}

void
NaivePolicy::evictChecked(EvictJob *job)
{
    const std::uint64_t shard = job->shard;
    evictJobs_.release(job);
    tree_.context(shard).buffers.releaseWrite();
    l2_.retryPendingMisses();
}

unsigned
NaivePolicy::recomputePath(std::uint64_t chunk)
{
    unsigned updated = 0;
    std::uint64_t cur = chunk;
    const Slot zero{};
    for (;;) {
        l2_.ramChunkImage(cur, recomputeScratch_);
        const Slot slot = auth_.compute(recomputeScratch_, zero);
        const std::int64_t parent = tree_.parentOf(cur);
        if (parent < 0) {
            tree_.rootOf(cur) = slot;
            break;
        }
        ram_.writeSlot(static_cast<std::uint64_t>(parent),
                       tree_.slotIndexOf(cur), slot);
        cur = static_cast<std::uint64_t>(parent);
        ++updated;
    }
    return updated;
}

} // namespace cmt
