#include "tree/authenticator.h"

#include <algorithm>
#include <cstring>

#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/xormac.h"
#include "support/logging.h"

namespace cmt
{

Authenticator::Authenticator(Kind kind, const Key128 &key,
                             std::size_t block_size, bool timestamps)
    : kind_(kind), blockSize_(block_size)
{
    cmt_assert(block_size > 0);
    if (kind_ == Kind::kXorMac)
        mac_ = std::make_unique<XorMac>(key, timestamps);
}

Slot
Authenticator::compute(std::span<const std::uint8_t> chunk,
                       const Slot &prev_slot) const
{
    Slot out{};
    switch (kind_) {
      case Kind::kMd5:
        out = Md5::digest(chunk);
        break;
      case Kind::kSha1Trunc: {
        const Hash160 full = Sha1::digest(chunk);
        std::memcpy(out.data(), full.data(), out.size());
        break;
      }
      case Kind::kXorMac: {
        const MacSlot prev = MacSlot::load(prev_slot.data());
        MacSlot next;
        next.tsBits = prev.tsBits;
        next.mac = mac_->mac(chunk, blockSize_, next.tsBits);
        next.store(out.data());
        break;
      }
    }
    return out;
}

bool
Authenticator::verify(std::span<const std::uint8_t> chunk,
                      const Slot &slot) const
{
    return compute(chunk, slot) == slot;
}

bool
Authenticator::verifyChain(
    std::span<const std::span<const std::uint8_t>> chunks,
    std::span<const Slot> slots) const
{
    return verifyChainFirstFailure(chunks, slots) < 0;
}

void
Authenticator::computeChain(
    std::span<const std::span<const std::uint8_t>> chunks,
    std::span<Slot> out) const
{
    cmt_assert(kind_ != Kind::kXorMac);
    cmt_assert(out.size() >= chunks.size());
    if (kind_ == Kind::kMd5) {
        Md5::digestChain(chunks, out);
        return;
    }
    const Slot zero{};
    for (std::size_t i = 0; i < chunks.size(); ++i)
        out[i] = compute(chunks[i], zero);
}

std::int64_t
Authenticator::verifyChainFirstFailure(
    std::span<const std::span<const std::uint8_t>> chunks,
    std::span<const Slot> slots) const
{
    cmt_assert(chunks.size() == slots.size());
    if (kind_ == Kind::kXorMac) {
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            if (!verify(chunks[i], slots[i]))
                return static_cast<std::int64_t>(i);
        }
        return -1;
    }
    // Fixed-size stack batches through computeChain.
    constexpr std::size_t kBatch = 16;
    Slot digests[kBatch];
    for (std::size_t done = 0; done < chunks.size(); done += kBatch) {
        const std::size_t n = std::min(kBatch, chunks.size() - done);
        computeChain(chunks.subspan(done, n), {digests, n});
        for (std::size_t i = 0; i < n; ++i) {
            if (digests[i] != slots[done + i])
                return static_cast<std::int64_t>(done + i);
        }
    }
    return -1;
}

Slot
Authenticator::updateSlot(const Slot &old_slot, unsigned block_idx,
                          std::span<const std::uint8_t> old_block,
                          std::span<const std::uint8_t> new_block) const
{
    cmt_assert(kind_ == Kind::kXorMac);
    cmt_assert(old_block.size() == blockSize_);
    cmt_assert(new_block.size() == blockSize_);

    const MacSlot old_mac = MacSlot::load(old_slot.data());
    const bool old_ts = (old_mac.tsBits >> block_idx) & 1;
    const bool new_ts = !old_ts;

    MacSlot next;
    next.mac = mac_->update(old_mac.mac, block_idx, old_block, old_ts,
                            new_block, new_ts);
    next.tsBits = old_mac.tsBits ^ (1u << block_idx);

    Slot out;
    next.store(out.data());
    return out;
}

bool
Authenticator::tsBit(const Slot &slot, unsigned block_idx) const
{
    cmt_assert(kind_ == Kind::kXorMac);
    return (MacSlot::load(slot.data()).tsBits >> block_idx) & 1;
}

} // namespace cmt
