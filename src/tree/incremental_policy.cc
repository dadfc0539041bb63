#include "tree/incremental_policy.h"

#include "cache/cache_array.h"
#include "tree/cached_tree_policy.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"

namespace cmt
{

IncrementalPolicy::IncrementalPolicy(L2Controller &l2)
    : CachedTreePolicy(l2)
{
    cmt_assert(auth_.incremental());
}

void
IncrementalPolicy::evictDirty(const CacheArray::Victim &victim)
{
    FlowScope guard(l2_);
    const std::uint64_t chunk = tree_.chunkOf(victim.blockAddr);
    const std::uint64_t shard = tree_.shardOfChunk(chunk);
    tree_.context(shard).buffers.acquireWrite();

    const unsigned block_idx = static_cast<unsigned>(
        (victim.blockAddr % params_.chunkSize) / params_.blockSize);

    // Timing decision must be taken before the parent line becomes
    // resident below.
    const bool parent_was_cached = l2_.parentSlotCachedNow(chunk);

    // Functional: capture the old block, then put the new bytes in
    // RAM *before* anything can recurse. Nested evictions triggered
    // below may read this chunk's image (e.g. a child of this hash
    // chunk writing back reads its slot from RAM) and must see fresh
    // bytes - the victim's line is already gone from the array.
    // The parent-line allocation below can run a nested write-back on
    // this policy, so each nesting depth keeps its own pair of blocks.
    if (blockImages_.size() == depth_)
        blockImages_.emplace_back();
    BlockImages &images = blockImages_[depth_++];
    ram_.readRange(victim.blockAddr, params_.blockSize, images.oldBlock);
    // The i scheme's old-value read is unchecked by design (Section
    // 5.6): the timestamp bit it flips makes a replay fail later.
    const std::vector<std::uint8_t> &old_block = images.oldBlock.unverified();
    images.newBlock.assign(old_block.begin(), old_block.end());
    mergeVictim(victim, images.newBlock);
    ram_.write(victim.blockAddr, images.newBlock);

    // Make the parent slot's line resident next: allocating it inside
    // publishSlot could displace another dirty block of this same
    // chunk, whose nested MAC update would then be clobbered by our
    // (stale) slot value. With the line resident, the
    // read-update-publish below is atomic. Nested same-chunk slot
    // updates that do land during this allocation commute with ours:
    // each fixes only its own xor term.
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent >= 0) {
        const std::uint64_t slot_addr =
            tree_.slotAddr(static_cast<std::uint64_t>(parent),
                           tree_.slotIndexOf(chunk));
        if (array_.lookup(slot_addr, false) == nullptr) {
            ++l2_.stat_writeMisses;
            l2_.allocateLine(array_.blockAddr(slot_addr));
        }
        // Fail loudly if a nested chain displaced the line again.
        cmt_assert(array_.lookup(slot_addr, false) != nullptr);
    }

    const Slot old_slot = l2_.expectedSlotNow(chunk);
    const Slot new_slot =
        auth_.updateSlot(old_slot, block_idx, old_block, images.newBlock);
    --depth_;
    publishSlot(chunk, new_slot);

    // Timing: the parent MAC is read via ReadAndCheck (free if its
    // slot is cached, a recursive chunk fetch otherwise), the old
    // block is read straight from RAM, two h_k terms are computed,
    // then the block is written.
    if (!parent_was_cached && tree_.parentOf(chunk) >= 0) {
        ++l2_.stat_hashChunkFetches;
        fetchChunk(static_cast<std::uint64_t>(tree_.parentOf(chunk)),
                   /*demand=*/false);
    }

    ++l2_.stat_integrityBlockReads; // the unchecked old-value read
    WriteBackJob *job = writeBackJobs_.acquire();
    job->self = this;
    job->blockAddr = victim.blockAddr;
    job->shard = shard;
    memory_.read(victim.blockAddr, params_.blockSize,
                 [job]() {
                     job->self->oldValueArrived(job);
                 });
}

void
IncrementalPolicy::oldValueArrived(WriteBackJob *job)
{
    const std::uint64_t block_addr = job->blockAddr;
    const std::uint64_t shard = job->shard;
    writeBackJobs_.release(job);

    // The two h_k terms stream through the hash unit as one chain.
    hasher_.hashChain(static_cast<unsigned>(params_.blockSize), 2,
                      [this, shard]() {
                          tree_.context(shard).buffers.releaseWrite();
                          l2_.retryPendingMisses();
                      },
                      shard);
    memory_.write(block_addr, params_.blockSize);
}

} // namespace cmt
