#include "verify/merkle_memory.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "crypto/xormac.h"
#include "mem/storage.h"
#include "support/bitops.h"
#include "tree/authenticator.h"
#include "tree/layout.h"
#include "tree/shard_router.h"
#include "tree/tree_debug.h"
#include "tree/untrusted.h"

namespace cmt
{

namespace
{

/** Extract slot @p index from a chunk image. */
Slot
slotFromImage(std::span<const std::uint8_t> image, std::uint64_t index)
{
    Slot out;
    std::memcpy(out.data(), image.data() + index * TreeLayout::kSlotSize,
                out.size());
    return out;
}

/**
 * Fault-injection seam (tree_debug.h): true when the skip-verify
 * fault is armed for @p chunk's shard, i.e. this verification must be
 * deliberately skipped so the differential fuzzer can prove the
 * cross-policy diff catches a scheme that stops checking.
 */
bool
verificationDisabled(const ShardRouter &tree, std::uint64_t chunk)
{
    const std::int64_t shard = faultSkipVerifyShard();
    return shard >= 0 &&
           static_cast<std::uint64_t>(shard) == tree.shardOfChunk(chunk);
}

} // namespace

MerkleMemory::MerkleMemory(Storage &untrusted, const MerkleConfig &config)
    : statLoads(stats_, "mm.loads", "verified load operations"),
      statStores(stats_, "mm.stores", "tree-maintaining stores"),
      statAuthComputes(stats_, "mm.auth_computes",
                       "full-chunk digests/MACs computed"),
      statAuthUpdates(stats_, "mm.auth_updates",
                      "incremental MAC updates"),
      statChecks(stats_, "mm.checks", "child-vs-parent comparisons"),
      statCheckFailures(stats_, "mm.check_failures",
                        "failed integrity checks"),
      statUntrustedReads(stats_, "mm.untrusted_reads",
                         "chunk reads from untrusted RAM"),
      statUntrustedWrites(stats_, "mm.untrusted_writes",
                          "chunk writes to untrusted RAM"),
      statCacheHits(stats_, "mm.cache_hits", "trusted-cache hits"),
      statCacheMisses(stats_, "mm.cache_misses", "trusted-cache misses"),
      untrusted_(untrusted), config_(config),
      tree_(config.chunkSize, config.protectedSize, config.shards),
      auth_(config.auth, config.key, config.blockSize,
            config.timestamps),
      chunks_(untrusted, tree_, auth_)
{
    cmt_assert(isPow2(config_.blockSize));
    cmt_assert(config_.blockSize <= config_.chunkSize);
    cmt_assert(config_.chunkSize / config_.blockSize <=
               XorMac::kMaxBlocks);
    cmt_assert(config_.cacheChunks == 0 ||
               config_.cacheChunks >= minCacheChunks(config_));

    // Every shard's root registers start at the canonical
    // (all-virgin) values; this *is* the paper's initialisation
    // procedure, collapsed by the lazily-materialising chunk store.
    tree_.resetRoots(chunks_.canonicalSlot(1));
}

std::size_t
MerkleMemory::minCacheChunks(const MerkleConfig &config)
{
    const TreeLayout shard(config.chunkSize,
                           config.protectedSize / config.shards);
    return 2 * std::size_t{shard.levels()} + 2;
}

std::uint64_t
MerkleMemory::load64(std::uint64_t addr)
{
    std::uint8_t buf[8];
    load(addr, buf);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

void
MerkleMemory::store64(std::uint64_t addr, std::uint64_t value)
{
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    store(addr, buf);
}

Slot
MerkleMemory::trustedSlotOf(std::uint64_t chunk)
{
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0)
        return tree_.rootOf(chunk);
    const std::uint64_t slot_index = tree_.slotIndexOf(chunk);
    if (config_.cacheChunks > 0) {
        CacheEntry &entry = getCached(static_cast<std::uint64_t>(parent));
        return slotFromImage(entry.data, slot_index);
    }
    const auto pchunk = static_cast<std::uint64_t>(parent);
    return slotFromImage(readAndCheck(pchunk, trustedSlotOf(pchunk)),
                         slot_index);
}

std::vector<std::uint8_t>
MerkleMemory::readAndCheck(std::uint64_t chunk, const Slot &expected)
{
    Untrusted<std::vector<std::uint8_t>> bytes = chunks_.readChunk(chunk);
    ++statUntrustedReads;
    ++statChecks;
    ++statAuthComputes;
    if (verificationDisabled(tree_, chunk))
        // The armed skip-verify fault hook (tree_debug.h) passes the
        // bytes on unchecked, so the fuzzer can prove it notices.
        return std::move(bytes).unverified();
    std::optional<std::vector<std::uint8_t>> checked =
        std::move(bytes).verified(auth_, expected);
    if (!checked) {
        ++statCheckFailures;
        throw IntegrityException(chunk, "integrity check failed on "
                                        "chunk " +
                                            std::to_string(chunk));
    }
    return std::move(*checked);
}

MerkleMemory::CacheEntry &
MerkleMemory::getCached(std::uint64_t chunk)
{
    auto it = cache_.find(chunk);
    if (it != cache_.end()) {
        ++statCacheHits;
        lru_.erase(it->second.lruIt);
        lru_.push_front(chunk);
        it->second.lruIt = lru_.begin();
        return it->second;
    }

    ++statCacheMisses;

    // Resolve the expected authenticator first; this pulls the parent
    // path into the cache (each fetched node becomes the trusted root
    // of its subtree, exactly the c-scheme intuition).
    Slot expected;
    const std::int64_t parent = tree_.parentOf(chunk);
    if (parent < 0) {
        expected = tree_.rootOf(chunk);
    } else {
        CacheEntry &pentry =
            getCached(static_cast<std::uint64_t>(parent));
        expected = slotFromImage(pentry.data, tree_.slotIndexOf(chunk));
    }

    // The parent fetch can itself pull this chunk into the cache (a
    // nested eviction updating a child slot allocates its parent,
    // which may be exactly this chunk); use that copy if it appeared.
    it = cache_.find(chunk);
    if (it != cache_.end()) {
        lru_.erase(it->second.lruIt);
        lru_.push_front(chunk);
        it->second.lruIt = lru_.begin();
        return it->second;
    }

    std::vector<std::uint8_t> bytes = readAndCheck(chunk, expected);

    lru_.push_front(chunk);
    auto [pos, inserted] = cache_.emplace(chunk, CacheEntry{});
    cmt_assert(inserted);
    pos->second.data = std::move(bytes);
    pos->second.lruIt = lru_.begin();
    ++pos->second.pins;
    evictIfNeeded();
    --pos->second.pins;
    return pos->second;
}

void
MerkleMemory::evictIfNeeded()
{
    while (cache_.size() > config_.cacheChunks) {
        // Walk from least-recently-used, skipping pinned entries.
        auto victim = lru_.end();
        for (auto it = std::prev(lru_.end());; --it) {
            if (cache_.at(*it).pins == 0) {
                victim = it;
                break;
            }
            if (it == lru_.begin())
                break;
        }
        if (victim == lru_.end())
            return; // everything pinned; allow transient overflow
        const std::uint64_t chunk = *victim;
        CacheEntry &entry = cache_.at(chunk);
        ++entry.pins;
        // A nested eviction inside writeBack (the parent fetch can
        // displace a dirty chunk whose own parent is this entry) may
        // re-dirty it after its mask was cleared; keep writing until
        // the entry stays clean so no update is dropped.
        while (entry.dirtyMask != 0)
            writeBack(chunk, entry);
        --entry.pins;
        lru_.erase(entry.lruIt);
        cache_.erase(chunk);
    }
}

void
MerkleMemory::writeBack(std::uint64_t chunk, CacheEntry &entry)
{
    ++entry.pins;
    const unsigned blocks = blocksPerChunk();
    Slot new_slot;

    if (auth_.incremental()) {
        // i scheme: read the old block images from RAM (unchecked -
        // the timestamp bits make later verification catch any foul
        // play), update the MAC term by term, write only the dirty
        // blocks.
        Slot slot = trustedSlotOf(chunk);
        Untrusted<std::vector<std::uint8_t>> old_block;
        for (unsigned j = 0; j < blocks; ++j) {
            if (!((entry.dirtyMask >> j) & 1))
                continue;
            const std::uint64_t baddr =
                tree_.chunkAddr(chunk) + j * config_.blockSize;
            chunks_.readRange(baddr, config_.blockSize, old_block);
            const std::span<const std::uint8_t> new_block{
                entry.data.data() + j * config_.blockSize,
                config_.blockSize};
            // The i scheme's old-value read, unchecked by design.
            slot = auth_.updateSlot(slot, j, old_block.unverified(),
                                    new_block);
            ++statAuthUpdates;
            chunks_.write(baddr, new_block);
        }
        ++statUntrustedWrites;
        new_slot = slot;
    } else {
        // c/m schemes: hash the whole (consistent) chunk image and
        // write every dirty block back.
        const Slot prev{};
        new_slot = auth_.compute(entry.data, prev);
        ++statAuthComputes;
        chunks_.write(tree_.chunkAddr(chunk), entry.data);
        ++statUntrustedWrites;
    }

    entry.dirtyMask = 0;
    updateParentSlot(chunk, new_slot);
    --entry.pins;
}

void
MerkleMemory::updateParentSlot(std::uint64_t child, const Slot &value)
{
    const std::int64_t parent = tree_.parentOf(child);
    if (parent < 0) {
        tree_.rootOf(child) = value;
        return;
    }
    const std::uint64_t pchunk = static_cast<std::uint64_t>(parent);
    const std::uint64_t offset =
        tree_.slotIndexOf(child) * TreeLayout::kSlotSize;

    if (config_.cacheChunks > 0) {
        CacheEntry &entry = getCached(pchunk);
        std::memcpy(entry.data.data() + offset, value.data(),
                    value.size());
        entry.dirtyMask |= 1ULL << (offset / config_.blockSize);
        return;
    }
    storeDirect(pchunk, offset, value);
}

void
MerkleMemory::storeDirect(std::uint64_t chunk, std::uint64_t offset,
                          std::span<const std::uint8_t> in)
{
    cmt_assert(offset + in.size() <= tree_.chunkSize());
    cmt_assert(config_.cacheChunks == 0);

    // Single walk: collect and verify the ancestor path bottom-up,
    // then apply the modification and ripple new authenticators to
    // the root - O(depth) reads, digests and writes.
    std::vector<std::uint64_t> path; // leaf first
    std::vector<Untrusted<std::vector<std::uint8_t>>> read;
    for (std::int64_t cur = static_cast<std::int64_t>(chunk); cur >= 0;
         cur = tree_.parentOf(static_cast<std::uint64_t>(cur))) {
        path.push_back(static_cast<std::uint64_t>(cur));
        read.push_back(chunks_.readChunk(static_cast<std::uint64_t>(cur)));
        ++statUntrustedReads;
    }

    // Verify every level against its parent (or the root register),
    // as one batched chain through the multi-stream digest. The whole
    // path lives in one shard, so the fault-injection skip applies to
    // all levels or none.
    std::vector<Slot> current_slots(path.size());
    std::vector<std::span<const std::uint8_t>> image_spans(path.size());
    for (std::size_t i = 0; i < path.size(); ++i) {
        current_slots[i] =
            i + 1 < path.size()
                ? slotFromImage(read[i + 1].forCheck(),
                                tree_.slotIndexOf(path[i]))
                : tree_.rootOf(path[i]);
        image_spans[i] = read[i].forCheck();
    }
    const std::int64_t bad =
        auth_.verifyChainFirstFailure(image_spans, current_slots);
    const bool failed =
        bad >= 0 && !verificationDisabled(
                        tree_, path[static_cast<std::size_t>(bad)]);
    // Stats mirror the per-level loop this replaces: levels past a
    // (non-skipped) failure were never reached.
    const std::size_t counted =
        failed ? static_cast<std::size_t>(bad) + 1 : path.size();
    statChecks += counted;
    statAuthComputes += counted;
    if (failed) {
        ++statCheckFailures;
        const std::uint64_t bad_chunk =
            path[static_cast<std::size_t>(bad)];
        throw IntegrityException(bad_chunk,
                                 "integrity check failed on chunk " +
                                     std::to_string(bad_chunk));
    }
    std::vector<std::vector<std::uint8_t>> images;
    images.reserve(path.size());
    for (Untrusted<std::vector<std::uint8_t>> &image : read)
        // Checked as one chain above, unless the fault hook skipped it.
        images.push_back(std::move(image).unverified());

    // Apply the modification at the leaf.
    Slot new_slot;
    if (auth_.incremental()) {
        std::vector<std::uint8_t> new_bytes = images[0];
        std::memcpy(new_bytes.data() + offset, in.data(), in.size());
        Slot slot = current_slots[0];
        const std::uint64_t first_block = offset / config_.blockSize;
        const std::uint64_t last_block =
            (offset + in.size() - 1) / config_.blockSize;
        for (std::uint64_t j = first_block; j <= last_block; ++j) {
            slot = auth_.updateSlot(
                slot, static_cast<unsigned>(j),
                std::span<const std::uint8_t>(images[0]).subspan(
                    j * config_.blockSize, config_.blockSize),
                std::span<const std::uint8_t>(new_bytes).subspan(
                    j * config_.blockSize, config_.blockSize));
            ++statAuthUpdates;
        }
        images[0] = std::move(new_bytes);
        new_slot = slot;
    } else {
        std::memcpy(images[0].data() + offset, in.data(), in.size());
        new_slot = auth_.compute(images[0], current_slots[0]);
        ++statAuthComputes;
    }
    chunks_.write(tree_.chunkAddr(path[0]), images[0]);
    ++statUntrustedWrites;

    // Ripple the new authenticators up the (already verified) path.
    for (std::size_t i = 1; i < path.size(); ++i) {
        const std::uint64_t slot_offset =
            tree_.slotIndexOf(path[i - 1]) * TreeLayout::kSlotSize;
        if (auth_.incremental()) {
            std::vector<std::uint8_t> new_bytes = images[i];
            std::memcpy(new_bytes.data() + slot_offset, new_slot.data(),
                        new_slot.size());
            const unsigned block = static_cast<unsigned>(
                slot_offset / config_.blockSize);
            new_slot = auth_.updateSlot(
                current_slots[i], block,
                std::span<const std::uint8_t>(images[i]).subspan(
                    block * config_.blockSize, config_.blockSize),
                std::span<const std::uint8_t>(new_bytes).subspan(
                    block * config_.blockSize, config_.blockSize));
            ++statAuthUpdates;
            images[i] = std::move(new_bytes);
        } else {
            std::memcpy(images[i].data() + slot_offset, new_slot.data(),
                        new_slot.size());
            new_slot = auth_.compute(images[i], current_slots[i]);
            ++statAuthComputes;
        }
        chunks_.write(tree_.chunkAddr(path[i]), images[i]);
        ++statUntrustedWrites;
    }
    tree_.rootOf(path.back()) = new_slot;
}

void
MerkleMemory::load(std::uint64_t addr, std::span<std::uint8_t> out)
{
    cmt_assert(addr + out.size() <= size());
    ++statLoads;

    std::size_t done = 0;
    while (done < out.size()) {
        const std::uint64_t ram = tree_.dataToRam(addr + done);
        const std::uint64_t chunk = tree_.chunkOf(ram);
        const std::uint64_t offset = ram % tree_.chunkSize();
        const std::size_t take = std::min<std::size_t>(
            out.size() - done, tree_.chunkSize() - offset);
        if (config_.cacheChunks > 0) {
            CacheEntry &entry = getCached(chunk);
            std::memcpy(out.data() + done, entry.data.data() + offset,
                        take);
        } else {
            const auto bytes = readAndCheck(chunk, trustedSlotOf(chunk));
            std::memcpy(out.data() + done, bytes.data() + offset, take);
        }
        done += take;
    }
}

void
MerkleMemory::store(std::uint64_t addr, std::span<const std::uint8_t> in)
{
    cmt_assert(addr + in.size() <= size());
    ++statStores;

    std::size_t done = 0;
    while (done < in.size()) {
        const std::uint64_t ram = tree_.dataToRam(addr + done);
        const std::uint64_t chunk = tree_.chunkOf(ram);
        const std::uint64_t offset = ram % tree_.chunkSize();
        const std::size_t take = std::min<std::size_t>(
            in.size() - done, tree_.chunkSize() - offset);
        if (config_.cacheChunks > 0) {
            CacheEntry &entry = getCached(chunk);
            std::memcpy(entry.data.data() + offset, in.data() + done,
                        take);
            const std::uint64_t first_block = offset / config_.blockSize;
            const std::uint64_t last_block =
                (offset + take - 1) / config_.blockSize;
            for (std::uint64_t j = first_block; j <= last_block; ++j)
                entry.dirtyMask |= 1ULL << j;
        } else {
            storeDirect(chunk, offset, in.subspan(done, take));
        }
        done += take;
    }
}

void
MerkleMemory::flush()
{
    // Children have strictly larger indices than their parents, so
    // writing back in descending chunk order lets parent updates land
    // in entries we have not yet visited. Parents materialised into
    // the cache mid-pass are caught by repeating until clean.
    for (;;) {
        std::vector<std::uint64_t> order;
        order.reserve(cache_.size());
        for (const auto &[chunk, entry] : cache_) {
            if (entry.dirtyMask != 0)
                order.push_back(chunk);
        }
        if (order.empty())
            return;
        std::sort(order.begin(), order.end(), std::greater<>());
        for (std::uint64_t chunk : order) {
            auto it = cache_.find(chunk);
            if (it != cache_.end() && it->second.dirtyMask != 0)
                writeBack(chunk, it->second);
        }
    }
}

void
MerkleMemory::clearCache()
{
    flush();
    cache_.clear();
    lru_.clear();
}

void
MerkleMemory::dmaWrite(std::uint64_t addr,
                       std::span<const std::uint8_t> in)
{
    cmt_assert(addr + in.size() <= size());
    // Chunk-by-chunk: with shards the RAM image of a data range is
    // not contiguous (each shard interleaves its own hash chunks), so
    // the landing addresses must be resolved per chunk.
    std::size_t done = 0;
    while (done < in.size()) {
        const std::uint64_t ram = tree_.dataToRam(addr + done);
        const std::uint64_t chunk = tree_.chunkOf(ram);
        const std::uint64_t offset = ram % tree_.chunkSize();
        const std::size_t take = std::min<std::size_t>(
            in.size() - done, tree_.chunkSize() - offset);
        chunks_.write(ram, in.subspan(done, take));
        // Drop (without write-back) any cached copy the DMA bypassed.
        auto it = cache_.find(chunk);
        if (it != cache_.end()) {
            lru_.erase(it->second.lruIt);
            cache_.erase(it);
        }
        done += take;
    }
}

void
MerkleMemory::rebuild(std::uint64_t addr, std::uint64_t len)
{
    cmt_assert(len > 0 && addr + len <= size());
    // Walk the data address space (not chunk indices): between two
    // shards the chunk range would sweep the next shard's hash
    // chunks, which a rebuild must never touch.
    for (std::uint64_t a = alignDown(addr, tree_.chunkSize());
         a < addr + len; a += tree_.chunkSize()) {
        const std::uint64_t chunk = tree_.chunkOf(tree_.dataToRam(a));
        Untrusted<std::vector<std::uint8_t>> bytes =
            chunks_.readChunk(chunk);
        ++statUntrustedReads;
        const Slot prev = trustedSlotOf(chunk);
        // A rebuild adopts the DMA-written bytes as authentic.
        const Slot next = auth_.compute(bytes.unverified(), prev);
        ++statAuthComputes;
        updateParentSlot(chunk, next);
    }
}

std::vector<Slot>
MerkleMemory::exportRoots()
{
    flush();
    std::vector<Slot> out;
    out.reserve(static_cast<std::size_t>(tree_.shards()) *
                tree_.arity());
    for (unsigned s = 0; s < tree_.shards(); ++s)
        for (const Slot &root : tree_.context(s).roots)
            out.push_back(root);
    return out;
}

void
MerkleMemory::importRoots(const std::vector<Slot> &roots)
{
    cmt_assert(roots.size() == static_cast<std::size_t>(tree_.shards()) *
                                  tree_.arity());
    cache_.clear();
    lru_.clear();
    std::size_t next = 0;
    for (unsigned s = 0; s < tree_.shards(); ++s)
        for (Slot &root : tree_.context(s).roots)
            root = roots[next++];
}

bool
MerkleMemory::verifyAll()
{
    flush();
    return chunks_.verifyTouched();
}

} // namespace cmt
