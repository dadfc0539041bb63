#include "tree/cached_tree_policy.h"

#include <cstring>

#include "cache/cache_array.h"
#include "tree/integrity_policy.h"

namespace cmt
{

void
CachedTreePolicy::startDemandMiss(std::uint64_t block_addr)
{
    const std::uint64_t chunk = tree_.chunkOf(block_addr);
    fetchChunk(chunk);
    // The chunk may already have filled (fetch raced ahead of this
    // miss); complete immediately in that case.
    const auto f = fetches_.find(chunk);
    if (f != fetches_.end() && f->second.dataArrived &&
        params_.speculativeChecks) {
        l2_.completeMshr(block_addr);
    }
}

void
CachedTreePolicy::fetchChunk(std::uint64_t chunk)
{
    if (fetches_.contains(chunk))
        return;

    auto [it, inserted] = fetches_.try_emplace(chunk);
    ChunkFetch &f = it->second;
    tree_.buffersOfChunk(chunk).acquireRead();

    // Issue RAM reads for every block that is not clean-and-complete
    // in the cache: the hash covers the *memory image*, so dirty or
    // partial cached blocks must be re-read from RAM (Section 5.4).
    const std::uint64_t base = tree_.chunkAddr(chunk);
    for (unsigned b = 0; b < l2_.blocksPerChunk(); ++b) {
        const std::uint64_t block_addr =
            base + static_cast<std::uint64_t>(b) * params_.blockSize;
        CacheArray::Line *line = array_.lookup(block_addr, false);
        const bool cached_clean = line != nullptr && !line->dirty &&
                                  line->validWords == array_.fullMask();
        if (cached_clean)
            continue;
        if (l2_.mshrPending(block_addr))
            ++l2_.stat_demandBlockReads;
        else
            ++l2_.stat_integrityBlockReads;
        ++f.pendingReads;
        memory_.read(block_addr, params_.blockSize,
                     [this, chunk]() {
                         auto fit = fetches_.find(chunk);
                         if (fit == fetches_.end())
                             return;
                         if (--fit->second.pendingReads == 0)
                             chunkDataArrived(chunk);
                     });
    }

    // Resolve where the parent authenticator will come from.
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0 || l2_.parentSlotCachedNow(chunk)) {
        f.parentReady = true;
    } else {
        const std::uint64_t pchunk = static_cast<std::uint64_t>(parent);
        ++l2_.stat_hashChunkFetches;
        fetchChunk(pchunk);
        auto pit = fetches_.find(pchunk);
        if (pit != fetches_.end() && !pit->second.dataArrived) {
            pit->second.dependents.push_back(chunk);
        } else {
            // Parent already filled (or completed inside the recursive
            // call): its slot is available now.
            f.parentReady = true;
        }
    }

    if (f.pendingReads == 0) {
        // Everything was cached-clean (possible for recursively
        // fetched parents): data is available immediately.
        events_.scheduleIn(0, [this, chunk] {
            auto fit = fetches_.find(chunk);
            if (fit != fetches_.end() && !fit->second.dataArrived)
                chunkDataArrived(chunk);
        });
    }
}

void
CachedTreePolicy::chunkDataArrived(std::uint64_t chunk)
{
    ChunkFetch &f = fetches_.at(chunk);
    f.dataArrived = true;

    // Functional verdict against the *current* RAM image and the
    // current trusted slot (cached copy if present, RAM otherwise).
    ram_.readChunk(chunk, imageScratch_);
    const std::vector<std::uint8_t> &image = imageScratch_.forCheck();
    f.verdictOk = auth_.verify(image, l2_.expectedSlotNow(chunk));

    // ReadAndCheck step 3: put the chunk's uncached blocks in the
    // cache. The fill may evict lines and trigger write-backs.
    l2_.fillChunkFromRam(chunk);

    if (params_.speculativeChecks)
        l2_.completeMshrsOfChunk(chunk);

    // Children waiting for this chunk's slot values can now compare.
    ChunkFetch &f2 = fetches_.at(chunk); // re-find: map may rebalance
    for (const std::uint64_t child : f2.dependents) {
        auto cit = fetches_.find(child);
        if (cit != fetches_.end()) {
            cit->second.parentReady = true;
            chunkMaybeComplete(child);
        }
    }
    f2.dependents.clear();

    hasher_.hash(static_cast<unsigned>(params_.chunkSize),
                 [this, chunk]() {
                     auto fit = fetches_.find(chunk);
                     if (fit == fetches_.end())
                         return;
                     fit->second.hashDone = true;
                     chunkMaybeComplete(chunk);
                 },
                 tree_.shardOfChunk(chunk));

    chunkMaybeComplete(chunk);
}

void
CachedTreePolicy::chunkMaybeComplete(std::uint64_t chunk)
{
    auto it = fetches_.find(chunk);
    if (it == fetches_.end())
        return;
    ChunkFetch &f = it->second;
    if (!f.dataArrived || !f.hashDone || !f.parentReady)
        return;

    ++l2_.stat_checks;
    if (!f.verdictOk)
        ++l2_.stat_checkFailures;

    if (!params_.speculativeChecks)
        l2_.completeMshrsOfChunk(chunk);

    fetches_.erase(it);
    tree_.buffersOfChunk(chunk).releaseRead();
    l2_.retryPendingMisses();
}

void
CachedTreePolicy::evictDirty(const CacheArray::Victim &victim)
{
    const std::uint64_t chunk = tree_.chunkOf(victim.blockAddr);
    beginWriteBack(chunk);

    const std::uint64_t base = tree_.chunkAddr(chunk);

    // Assemble the new chunk image: victim words, other cached valid
    // words, RAM for the rest. Track which blocks must be written and
    // whether the write-back needs RAM reads (missing words).
    ram_.readChunk(chunk, imageScratch_);
    // Known leak: the words no cached line holds (a parent line
    // allocated unfetched holds one slot) come from RAM unchecked and
    // are hashed into the parent slot below, so a tampered sibling
    // slot is laundered into the tree.
    std::vector<std::uint8_t> &image = imageScratch_.unverified();

    unsigned dirty_blocks = 0;
    bool chunk_fully_cached = true;

    for (unsigned b = 0; b < l2_.blocksPerChunk(); ++b) {
        const std::uint64_t block_addr =
            base + static_cast<std::uint64_t>(b) * params_.blockSize;
        std::uint8_t *dst = image.data() + b * params_.blockSize;

        const std::uint8_t *src = nullptr;
        std::uint64_t valid = 0;
        bool dirty = false;
        if (block_addr == victim.blockAddr) {
            src = victim.data.data();
            valid = victim.validWords;
            dirty = true;
        } else if (CacheArray::Line *line =
                       array_.lookup(block_addr, false)) {
            src = line->data.data();
            valid = line->validWords;
            dirty = line->dirty;
            // Section 5.4 Write-Back step 2: every cached block of the
            // chunk is written back together and marked clean.
            line->dirty = false;
        }
        if (valid != array_.fullMask())
            chunk_fully_cached = false;
        if (src != nullptr) {
            for (unsigned w = 0; w < array_.wordsPerBlock(); ++w) {
                if ((valid >> w) & 1)
                    std::memcpy(dst + w * kWordSize,
                                src + w * kWordSize, kWordSize);
            }
        }
        if (dirty)
            ++dirty_blocks;
    }

    // Functional commit, ordered to be safe against nested evictions:
    //  1. RAM gets the assembled image first, so any nested flow
    //     reading this chunk (e.g. a child write-back fetching its
    //     slot) sees fresh bytes.
    //  2. The parent slot's line is made resident; that allocation may
    //     displace other dirty lines - even a resurrected block of
    //     THIS chunk (a child's publish can re-allocate it and a
    //     deeper allocation re-evict it), advancing the chunk's RAM
    //     image past what we assembled.
    //  3. The authenticator is therefore recomputed from the *current*
    //     RAM image and published with no allocation possible in
    //     between: read-compute-publish is atomic.
    // Timing decision captured before residency/publish below.
    const bool parent_slot_was_cached = l2_.parentSlotCachedNow(chunk);

    ram_.write(base, image);
    makeParentSlotResident(chunk);

    // Timestamp bits of a MAC-kind slot carry over from the current
    // slot value.
    const Slot prev = l2_.expectedSlotNow(chunk);
    ram_.readChunk(chunk, imageScratch_);
    // The image assembled above, or a nested write-back's newer one.
    const Slot new_slot = auth_.compute(imageScratch_.unverified(), prev);
    publishSlot(chunk, new_slot);

    // Timing: if the chunk was not entirely contained in the cache,
    // the missing data comes from RAM via ReadAndCheckChunk, modelled
    // as one chunk-sized read plus one more digest to verify it, and
    // that check needs the parent authenticator too. Then the digest
    // of the new image and the dirty block writes.
    if (!chunk_fully_cached) {
        chargeParentSlotRead(chunk, parent_slot_was_cached);
        l2_.stat_integrityBlockReads += l2_.blocksPerChunk() > 1
                                            ? l2_.blocksPerChunk() - 1
                                            : 1;
    }
    const auto chunk_bytes = static_cast<unsigned>(params_.chunkSize);
    finishWriteBack(base, {.reads = chunk_fully_cached ? 0u : 1u,
                           .readBytes = chunk_bytes,
                           .digests = chunk_fully_cached ? 1u : 2u,
                           .digestBytes = chunk_bytes,
                           .blockWrites = dirty_blocks});
}

void
CachedTreePolicy::makeParentSlotResident(std::uint64_t chunk)
{
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0)
        return;
    const std::uint64_t slot_addr = tree_.slotAddr(
        static_cast<std::uint64_t>(parent), tree_.slotIndexOf(chunk));
    if (array_.lookup(slot_addr, false) == nullptr) {
        ++l2_.stat_writeMisses;
        l2_.allocateLine(array_.blockAddr(slot_addr));
    }
    // Fail loudly if a nested chain displaced the line again.
    cmt_assert(array_.lookup(slot_addr, false) != nullptr);
}

void
CachedTreePolicy::chargeParentSlotRead(std::uint64_t chunk,
                                       bool slot_was_cached)
{
    const std::int64_t parent = tree_.parentOf(chunk);
    if (slot_was_cached || parent < 0)
        return;
    ++l2_.stat_hashChunkFetches;
    fetchChunk(static_cast<std::uint64_t>(parent));
}

void
CachedTreePolicy::publishSlot(std::uint64_t chunk, const Slot &value)
{
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0) {
        tree_.rootOf(chunk) = value;
        return;
    }
    const std::uint64_t slot_addr = tree_.slotAddr(
        static_cast<std::uint64_t>(parent), tree_.slotIndexOf(chunk));

    // The Write algorithm: the slot lands in the (trusted) cache and
    // flows to RAM when the parent is itself evicted.
    l2_.writeRam(slot_addr, value);
}

} // namespace cmt
