#include "tree/l2_controller.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "cache/cache_array.h"
#include "mem/main_memory.h"
#include "support/event.h"
#include "support/logging.h"
#include "support/stats.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/hash_engine.h"
#include "tree/integrity_policy.h"
#include "tree/layout.h"
#include "tree/shard_router.h"
#include "tree/tree_debug.h"
#include "tree/verify_buffer.h"

namespace cmt
{

L2Controller::L2Controller(EventQueue &events, MainMemory &memory,
                           ChunkStore &ram, HashEngine &hasher,
                           ShardRouter &tree,
                           const Authenticator &auth,
                           const L2Params &params, StatGroup &stats,
                           PolicyFactory factory)
    : stat_reads(stats, "l2.reads", "demand read accesses"),
      stat_writes(stats, "l2.writes", "demand store accesses"),
      stat_readHits(stats, "l2.read_hits", "demand read hits"),
      stat_readMisses(stats, "l2.read_misses", "demand read misses"),
      stat_writeMisses(stats, "l2.write_misses", "store allocations"),
      stat_demandBlockReads(stats, "l2.demand_block_reads",
                            "RAM block reads serving demand"),
      stat_integrityBlockReads(stats, "l2.integrity_block_reads",
                               "RAM block reads added by verification"),
      stat_evictionsDirty(stats, "l2.evictions_dirty",
                          "dirty lines written back"),
      stat_evictionsClean(stats, "l2.evictions_clean",
                          "clean lines dropped"),
      stat_checks(stats, "l2.checks", "chunk checks announced"),
      stat_checkFailures(stats, "l2.check_failures",
                         "integrity exceptions raised"),
      stat_hashChunkFetches(stats, "l2.hash_chunk_fetches",
                            "recursive parent-chunk fetches"),
      stat_bufferStallEvents(stats, "l2.buffer_stalls",
                             "demand misses queued on full buffers"),
      events_(events), memory_(memory), ram_(ram), hasher_(hasher),
      tree_(tree), auth_(auth), params_(params),
      array_(CacheParams{"l2", params.sizeBytes, params.assoc,
                         params.blockSize, /*storesData=*/true})
{
    cmt_assert(params_.chunkSize % params_.blockSize == 0);
    cmt_assert(params_.chunkSize == tree_.chunkSize());
    cmt_assert(params_.shards == tree_.shards());

    tree_.resetRoots(ram_.canonicalSlot(1));

    policy_ = factory ? factory(params_.scheme, *this)
                      : makeIntegrityPolicy(params_.scheme, *this);
    cmt_assert(policy_ != nullptr);
}

L2Controller::~L2Controller() = default;

/**
 * Debug-only: verify that the traced chunk's authoritative slot
 * (valid L2 copy, else RAM) matches its current RAM image.
 */
void
L2Controller::debugCheckInvariant(const char *tag)
{
    const std::int64_t id = traceChunkId();
    if (id < 0 || flowDepth_ > 0)
        return;
    const std::uint64_t chunk = static_cast<std::uint64_t>(id);
    const std::vector<std::uint8_t> image = ramChunkImage(chunk);
    const Slot expected = expectedSlotNow(chunk);
    if (!auth_.verify(image, expected)) {
        debugf("INVARIANT BROKEN @%llu after %s (chunk %llu)\n",
               static_cast<unsigned long long>(events_.now()), tag,
               static_cast<unsigned long long>(chunk));
    }
}

// --------------------------------------------------------------------
// Core-side interface
// --------------------------------------------------------------------

void
L2Controller::read(std::uint64_t cpu_addr, unsigned size,
                   Callback on_data)
{
    ++stat_reads;
    const std::uint64_t ram_addr = ramOf(cpu_addr);
    readRam(ram_addr,
            array_.wordMask(ram_addr % params_.blockSize, size),
            std::move(on_data));
}

void
L2Controller::readRam(std::uint64_t ram_addr, std::uint64_t need_mask,
                      Callback on_data)
{
    CacheArray::Line *line = array_.lookup(ram_addr);
    if (line && (line->validWords & need_mask) == need_mask) {
        ++stat_readHits;
        events_.scheduleIn(params_.hitLatency, std::move(on_data));
        return;
    }
    ++stat_readMisses;
    startMiss(ram_addr, need_mask, std::move(on_data));
}

void
L2Controller::write(std::uint64_t cpu_addr,
                    std::span<const std::uint8_t> data)
{
    ++stat_writes;
    writeRam(ramOf(cpu_addr), data);
}

void
L2Controller::writeRam(std::uint64_t ram_addr,
                       std::span<const std::uint8_t> data)
{
    const unsigned offset = ram_addr % params_.blockSize;
    cmt_assert(offset + data.size() <= params_.blockSize);
    // Stores are word-granular: per-word valid bits cannot represent
    // a sub-word write (the core issues aligned 8-byte stores; slot
    // updates are aligned 16-byte writes).
    cmt_assert(offset % kWordSize == 0 &&
               data.size() % kWordSize == 0);
    const std::uint64_t mask = array_.wordMask(offset, data.size());

    CacheArray::Line *line = array_.lookup(ram_addr);
    if (line == nullptr) {
        ++stat_writeMisses;
        // The baseline uses classic write-allocate (fetch the block on
        // a store miss, like the SimpleScalar L2 the paper measures);
        // the tree schemes use the Section 5.3 optimisation (allocate
        // with only the stored words valid - never fetch, never
        // check) unless the ablation disables it.
        if (policy_->storeMissAllocatesWithoutFetch(ram_addr)) {
            line = allocateLine(ram_addr);
        } else {
            // Fetch (and for tree schemes check) the block, then
            // apply the store on fill.
            std::vector<std::uint8_t> copy(data.begin(), data.end());
            startMiss(ram_addr, mask,
                      [this, ram_addr, copy = std::move(copy)]() {
                          writeRam(ram_addr, copy);
                      });
            return;
        }
    }
    if (traceChunkId() >= 0 &&
        tree_.chunkOf(ram_addr) ==
            static_cast<std::uint64_t>(traceChunkId())) {
        debugf("@%llu writeRam into chunk=%lld addr=%llx size=%zu\n",
               static_cast<unsigned long long>(events_.now()),
               static_cast<long long>(traceChunkId()),
               static_cast<unsigned long long>(ram_addr), data.size());
    }
    std::memcpy(line->data.data() + offset, data.data(), data.size());
    line->validWords |= mask;
    line->dirty = true;
    debugCheckInvariant("writeRam");
}

// --------------------------------------------------------------------
// Demand-miss dispatch
// --------------------------------------------------------------------

void
L2Controller::startMiss(std::uint64_t ram_addr, std::uint64_t need_mask,
                        Callback on_data)
{
    // Admission control is per shard: a miss only competes for its own
    // shard's check buffers, so shards verify in parallel.
    VerifyBuffer &buffers = tree_.buffersOfRam(ram_addr);
    if (policy_->verifiesIntegrity() && !buffers.available()) {
        ++stat_bufferStallEvents;
        buffers.defer(VerifyBuffer::DeferredMiss{ram_addr, need_mask,
                                                 std::move(on_data)});
        return;
    }

    const std::uint64_t block_addr = array_.blockAddr(ram_addr);
    auto [it, fresh] = mshrs_.try_emplace(block_addr);
    it->second.waiters.push_back(std::move(on_data));
    if (!fresh)
        return; // piggyback on the outstanding fetch

    policy_->startDemandMiss(block_addr);
}

void
L2Controller::retryPendingMisses()
{
    // Deterministic shard order keeps K = 1 behaviour bit-identical
    // (one shard, one queue) and K > 1 reproducible.
    for (unsigned s = 0; s < tree_.shards(); ++s) {
        VerifyBuffer &buffers = tree_.context(s).buffers;
        while (buffers.hasDeferred() && buffers.available()) {
            VerifyBuffer::DeferredMiss pm = buffers.popDeferred();
            // Re-check: the block may have been filled meanwhile.
            CacheArray::Line *line = array_.lookup(pm.ramAddr);
            if (line &&
                (line->validWords & pm.needMask) == pm.needMask) {
                events_.scheduleIn(params_.hitLatency,
                                   std::move(pm.onData));
                continue;
            }
            startMiss(pm.ramAddr, pm.needMask, std::move(pm.onData));
        }
    }
}

// --------------------------------------------------------------------
// MSHR plumbing
// --------------------------------------------------------------------

void
L2Controller::completeMshr(std::uint64_t block_addr)
{
    const auto it = mshrs_.find(block_addr);
    if (it == mshrs_.end())
        return;
    // Privacy extension: data blocks decrypt on the way in.
    const Cycle extra =
        params_.encryptData &&
                !tree_.isHashChunk(tree_.chunkOf(block_addr))
            ? params_.decryptLatency
            : 0;
    for (auto &cb : it->second.waiters)
        events_.scheduleIn(extra, std::move(cb));
    mshrs_.erase(it);
}

void
L2Controller::completeMshrsOfChunk(std::uint64_t chunk)
{
    const std::uint64_t base = tree_.chunkAddr(chunk);
    for (unsigned b = 0; b < blocksPerChunk(); ++b)
        completeMshr(base + static_cast<std::uint64_t>(b) *
                                params_.blockSize);
}

// --------------------------------------------------------------------
// Fills
// --------------------------------------------------------------------

// Documented raw-image seam: callers (the integrity policies) hash
// this image against the verified parent before any byte is used.
// cmt-analyze: allow(trust-boundary)
std::vector<std::uint8_t>
L2Controller::ramChunkImage(std::uint64_t chunk)
{
    return ram_.readChunk(chunk);
}

// cmt-analyze: allow(trust-boundary)
void
L2Controller::ramChunkImage(std::uint64_t chunk,
                            std::vector<std::uint8_t> &out)
{
    ram_.readChunk(chunk, out);
}

void
L2Controller::fillBlockFromRam(std::uint64_t block_addr)
{
    CacheArray::Line *line = array_.lookup(block_addr, false);
    if (line == nullptr)
        line = allocateLine(block_addr);

    std::vector<std::uint8_t> bytes(params_.blockSize);
    ram_.read(block_addr, bytes);
    for (unsigned w = 0; w < array_.wordsPerBlock(); ++w) {
        if ((line->validWords >> w) & 1)
            continue; // keep (possibly dirty) cached words
        std::memcpy(line->data.data() + w * kWordSize,
                    bytes.data() + w * kWordSize, kWordSize);
    }
    line->validWords = array_.fullMask();
    debugCheckInvariant("fillBlockFromRam");
}

void
L2Controller::fillChunkFromRam(std::uint64_t chunk)
{
    const std::uint64_t base = tree_.chunkAddr(chunk);
    for (unsigned b = 0; b < blocksPerChunk(); ++b)
        fillBlockFromRam(base + static_cast<std::uint64_t>(b) *
                                    params_.blockSize);
}

// --------------------------------------------------------------------
// Expected-slot resolution
// --------------------------------------------------------------------

bool
L2Controller::parentSlotCachedNow(std::uint64_t chunk)
{
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0)
        return true;
    const std::uint64_t slot_addr = tree_.slotAddr(
        static_cast<std::uint64_t>(parent), tree_.slotIndexOf(chunk));
    CacheArray::Line *line = array_.lookup(slot_addr, false);
    if (line == nullptr)
        return false;
    const std::uint64_t mask = array_.wordMask(
        slot_addr % params_.blockSize, TreeLayout::kSlotSize);
    return (line->validWords & mask) == mask;
}

// The slot fetched here is the *reference* value the caller compares
// a chunk's recomputed hash against; a cached copy is trusted by the
// on-chip-cache axiom, and the RAM fallback is exactly the value
// verifyChunk() is about to check. Verifying it here would recurse.
// cmt-analyze: allow(trust-boundary)
Slot
L2Controller::expectedSlotNow(std::uint64_t chunk)
{
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0)
        return tree_.rootOf(chunk);

    const std::uint64_t pchunk = static_cast<std::uint64_t>(parent);
    const std::uint64_t slot_index = tree_.slotIndexOf(chunk);
    const std::uint64_t slot_addr = tree_.slotAddr(pchunk, slot_index);

    CacheArray::Line *line = array_.lookup(slot_addr, false);
    if (line != nullptr) {
        const unsigned offset = slot_addr % params_.blockSize;
        const std::uint64_t mask =
            array_.wordMask(offset, TreeLayout::kSlotSize);
        if ((line->validWords & mask) == mask) {
            Slot out;
            std::memcpy(out.data(), line->data.data() + offset,
                        out.size());
            return out;
        }
    }
    return ram_.readSlot(pchunk, slot_index);
}

// --------------------------------------------------------------------
// Evictions
// --------------------------------------------------------------------

CacheArray::Line *
L2Controller::allocateLine(std::uint64_t block_addr)
{
    cmt_assert(++evictionDepth_ < 64);
    for (;;) {
        CacheArray::Victim victim;
        array_.allocate(block_addr, &victim);
        if (victim.valid)
            handleEviction(std::move(victim));
        // The eviction cascade can wrap around the set and displace
        // the line we just allocated (its own write-backs allocate
        // parent-slot lines); callers hold the returned pointer
        // across no further operations, so it must be valid *now*.
        // Re-look-up and retry if the cascade displaced it.
        if (CacheArray::Line *line = array_.lookup(block_addr, false)) {
            --evictionDepth_;
            return line;
        }
    }
}

void
L2Controller::handleEviction(CacheArray::Victim &&victim)
{
    // Inclusion: tell the L1s their copies are gone.
    if (onBackInvalidate &&
        !tree_.isHashChunk(tree_.chunkOf(victim.blockAddr))) {
        onBackInvalidate(tree_.ramToData(victim.blockAddr),
                         params_.blockSize);
    }

    if (static_cast<std::int64_t>(tree_.chunkOf(victim.blockAddr)) ==
        traceChunkId()) {
        debugf("@%llu handleEviction chunk=%lld dirty=%d valid=%llx\n",
               static_cast<unsigned long long>(events_.now()),
               static_cast<long long>(traceChunkId()),
               static_cast<int>(victim.dirty),
               static_cast<unsigned long long>(victim.validWords));
    }
    if (!victim.dirty) {
        ++stat_evictionsClean;
        return;
    }
    ++stat_evictionsDirty;

    policy_->evictDirty(victim);
}

bool
L2Controller::verifyTreeConsistency()
{
    if (!policy_->verifiesIntegrity())
        return true;
    for (const std::uint64_t chunk : ram_.touchedChunks()) {
        const std::vector<std::uint8_t> image = ramChunkImage(chunk);
        const std::int64_t parent = tree_.parentOf(chunk);
        const Slot expected =
            parent < 0
                ? tree_.rootOf(chunk)
                : ram_.readSlot(static_cast<std::uint64_t>(parent),
                                tree_.slotIndexOf(chunk));
        if (!auth_.verify(image, expected))
            return false;
    }
    return true;
}

void
L2Controller::flushAllDirty()
{
    // Descending block address order: children of a chunk live at
    // higher addresses than their ancestors, so parent-slot updates
    // land in lines we have not yet visited. Repeat until clean.
    // Write-backs go straight to the policy: a flush is not an
    // eviction (no back-invalidation, no clean/dirty accounting).
    for (;;) {
        std::vector<std::uint64_t> dirty;
        array_.forEachLine([&](CacheArray::Line &line) {
            if (line.dirty)
                dirty.push_back(line.blockAddr);
        });
        if (dirty.empty())
            return;
        std::sort(dirty.begin(), dirty.end(), std::greater<>());
        for (const std::uint64_t addr : dirty) {
            CacheArray::Line *line = array_.lookup(addr, false);
            if (line == nullptr || !line->dirty)
                continue;
            CacheArray::Victim victim;
            victim.valid = true;
            victim.dirty = true;
            victim.blockAddr = line->blockAddr;
            victim.validWords = line->validWords;
            victim.data = line->data;
            line->dirty = false;
            policy_->evictDirty(victim);
        }
    }
}

} // namespace cmt
