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
    const std::uint64_t chunk = tree_.chunkOf(victim.blockAddr);
    beginWriteBack(chunk);

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
    // (stale) slot value. Nested same-chunk slot updates that do land
    // during this allocation commute with ours: each fixes only its
    // own xor term.
    makeParentSlotResident(chunk);

    const Slot old_slot = l2_.expectedSlotNow(chunk);
    const Slot new_slot =
        auth_.updateSlot(old_slot, block_idx, old_block, images.newBlock);
    --depth_;
    publishSlot(chunk, new_slot);

    // Timing: the parent MAC is read via ReadAndCheck, the old block
    // is read straight from RAM, the two h_k terms stream through the
    // hash unit as one chain, then the block is written.
    chargeParentSlotRead(chunk, parent_was_cached);
    ++l2_.stat_integrityBlockReads; // the unchecked old-value read
    const auto block_bytes = static_cast<unsigned>(params_.blockSize);
    finishWriteBack(victim.blockAddr, {.reads = 1,
                                       .readBytes = block_bytes,
                                       .digests = 2,
                                       .digestBytes = block_bytes,
                                       .blockWrites = 1});
}

} // namespace cmt
