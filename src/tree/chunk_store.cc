#include "tree/chunk_store.h"

#include "mem/storage.h"
#include "tree/authenticator.h"
#include "tree/layout.h"
#include "tree/shard_router.h"
#include "tree/untrusted.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>

namespace cmt
{

ChunkStore::ChunkStore(Storage &base, const ShardRouter &tree,
                       const Authenticator &auth)
    : base_(base), tree_(tree), auth_(auth),
      touched_((tree.totalChunks() + kLeafBits - 1) >> kLeafShift)
{
    // Build the canonical authenticators bottom-up: a virgin leaf is
    // all zeros; a virgin hash chunk at level k repeats the canonical
    // level-(k+1) slot across its arity() entries. Every shard has the
    // same per-shard geometry, so one table covers them all.
    canonicalSlots_.resize(tree_.levels() + 1);
    std::vector<std::uint8_t> chunk(tree_.chunkSize(), 0);
    const Slot zero_slot{};
    canonicalSlots_[tree_.levels()] = auth_.compute(chunk, zero_slot);
    for (unsigned level = tree_.levels() - 1; level >= 1; --level) {
        for (std::uint64_t s = 0; s < tree_.arity(); ++s) {
            std::memcpy(chunk.data() + s * TreeLayout::kSlotSize,
                        canonicalSlots_[level + 1].data(),
                        TreeLayout::kSlotSize);
        }
        canonicalSlots_[level] = auth_.compute(chunk, zero_slot);
    }
}

void
ChunkStore::canonicalBytes(std::uint64_t chunk, std::uint64_t offset,
                           std::span<std::uint8_t> out) const
{
    cmt_assert(offset + out.size() <= tree_.chunkSize());
    if (!tree_.isHashChunk(chunk)) {
        std::memset(out.data(), 0, out.size());
        return;
    }
    // A virgin hash chunk repeats its child level's canonical slot.
    const Slot &slot = canonicalSlots_[tree_.levelOf(chunk) + 1];
    std::size_t done = 0;
    while (done < out.size()) {
        const std::size_t at = (offset + done) % TreeLayout::kSlotSize;
        const std::size_t take = std::min<std::size_t>(
            out.size() - done, TreeLayout::kSlotSize - at);
        std::memcpy(out.data() + done, slot.data() + at, take);
        done += take;
    }
}

void
ChunkStore::markTouched(std::uint64_t chunk)
{
    cmt_assert(chunk < tree_.totalChunks());
    std::unique_ptr<Leaf> &leaf = touched_[chunk >> kLeafShift];
    if (leaf == nullptr)
        leaf = std::make_unique<Leaf>();
    const std::uint64_t bit = chunk & (kLeafBits - 1);
    (*leaf)[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

std::vector<std::uint64_t>
ChunkStore::touchedChunks() const
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t l = 0; l < touched_.size(); ++l) {
        if (touched_[l] == nullptr)
            continue;
        for (std::uint64_t w = 0; w < touched_[l]->size(); ++w) {
            for (std::uint64_t bits = (*touched_[l])[w]; bits != 0;
                 bits &= bits - 1) {
                out.push_back((l << kLeafShift) + w * 64 +
                              static_cast<unsigned>(std::countr_zero(bits)));
            }
        }
    }
    return out;
}

void
ChunkStore::materialise(std::uint64_t chunk)
{
    if (touched(chunk))
        return;
    std::vector<std::uint8_t> content(tree_.chunkSize());
    canonicalBytes(chunk, 0, content);
    base_.write(tree_.chunkAddr(chunk), content);
    markTouched(chunk);
}

void
ChunkStore::read(std::uint64_t addr, std::span<std::uint8_t> out)
{
    std::size_t done = 0;
    while (done < out.size()) {
        const std::uint64_t chunk = tree_.chunkOf(addr + done);
        const std::uint64_t offset = (addr + done) % tree_.chunkSize();
        const std::size_t take = std::min<std::size_t>(
            out.size() - done, tree_.chunkSize() - offset);
        if (touched(chunk))
            base_.read(addr + done, out.subspan(done, take));
        else
            canonicalBytes(chunk, offset, out.subspan(done, take));
        done += take;
    }
}

void
ChunkStore::write(std::uint64_t addr, std::span<const std::uint8_t> in)
{
    std::size_t done = 0;
    while (done < in.size()) {
        const std::uint64_t chunk = tree_.chunkOf(addr + done);
        const std::uint64_t offset = (addr + done) % tree_.chunkSize();
        const std::size_t take = std::min<std::size_t>(
            in.size() - done, tree_.chunkSize() - offset);
        materialise(chunk);
        base_.write(addr + done, in.subspan(done, take));
        done += take;
    }
}

Untrusted<std::vector<std::uint8_t>>
ChunkStore::readChunk(std::uint64_t chunk)
{
    Untrusted<std::vector<std::uint8_t>> out;
    readChunk(chunk, out);
    return out;
}

void
ChunkStore::readChunk(std::uint64_t chunk,
                      Untrusted<std::vector<std::uint8_t>> &out)
{
    readRange(tree_.chunkAddr(chunk), tree_.chunkSize(), out);
}

void
ChunkStore::readRange(std::uint64_t addr, std::size_t len,
                      Untrusted<std::vector<std::uint8_t>> &out)
{
    out.value_.resize(len);
    read(addr, out.value_);
}

Untrusted<Slot>
ChunkStore::readSlot(std::uint64_t chunk, std::uint64_t slot_index)
{
    cmt_assert(tree_.isHashChunk(chunk));
    Untrusted<Slot> out;
    read(tree_.slotAddr(chunk, slot_index), out.value_);
    return out;
}

bool
ChunkStore::verifyTouched()
{
    constexpr std::size_t kBatch = 16;
    std::vector<Untrusted<std::vector<std::uint8_t>>> images(kBatch);
    std::array<std::span<const std::uint8_t>, kBatch> spans;
    std::array<Slot, kBatch> expected;
    std::size_t pending = 0;
    const auto batchOk = [&] {
        const bool ok = auth_.verifyChain({spans.data(), pending},
                                          {expected.data(), pending});
        pending = 0;
        return ok;
    };
    for (const std::uint64_t chunk : touchedChunks()) {
        readChunk(chunk, images[pending]);
        spans[pending] = images[pending].forCheck();
        const std::int64_t parent = tree_.parentOf(chunk);
        expected[pending] =
            parent < 0 ? tree_.rootOf(chunk)
                       : readSlot(static_cast<std::uint64_t>(parent),
                                  tree_.slotIndexOf(chunk))
                             .forCheck();
        if (++pending == kBatch && !batchOk())
            return false;
    }
    return pending == 0 || batchOk();
}

void
ChunkStore::writeSlot(std::uint64_t chunk, std::uint64_t slot_index,
                      const Slot &value)
{
    cmt_assert(tree_.isHashChunk(chunk));
    write(tree_.slotAddr(chunk, slot_index), value);
}

} // namespace cmt
