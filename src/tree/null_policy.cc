#include "tree/null_policy.h"

#include "cache/cache_array.h"

namespace cmt
{

void
NullPolicy::startDemandMiss(std::uint64_t block_addr)
{
    ++l2_.stat_demandBlockReads;
    memory_.read(block_addr, params_.blockSize,
                 [this, block_addr]() {
                     l2_.fillBlockFromRam(block_addr);
                     l2_.completeMshr(block_addr);
                 });
}

void
NullPolicy::evictDirty(const CacheArray::Victim &victim)
{
    // Partial writes are legal on a real bus: write the valid words.
    unsigned bytes = 0;
    for (unsigned w = 0; w < array_.wordsPerBlock(); ++w) {
        if (!((victim.validWords >> w) & 1))
            continue;
        ram_.write(victim.blockAddr + w * kWordSize,
                   {victim.data.data() + w * kWordSize, kWordSize});
        bytes += kWordSize;
    }
    if (bytes > 0)
        memory_.write(victim.blockAddr, bytes);
}

} // namespace cmt
