/**
 * @file
 * Seed-derived store content and the client-side shadow copy that
 * checks every byte a served read returns.
 */

#ifndef PERFBENCH_SHADOW_H
#define PERFBENCH_SHADOW_H

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "report.h"

namespace perfbench
{

/**
 * Deterministic initial content of the store: each 8-byte word is a
 * hash of (seed, address), so any slice can be rebuilt without the
 * rest. @p addr must be 8-aligned and @p out a multiple of 8 bytes.
 */
inline void
fillInitialContent(std::uint64_t seed, std::uint64_t addr,
                   std::span<std::uint8_t> out)
{
    for (std::size_t off = 0; off < out.size(); off += 8) {
        std::uint64_t state = seed * 0x9e3779b97f4a7c15ull ^ (addr + off);
        const std::uint64_t word = splitmix64(state);
        std::memcpy(out.data() + off, &word, 8);
    }
}

/**
 * The expected content of one connection's slice [base, base+size).
 * Connections own disjoint slices, so each shadow is exact: a write
 * acknowledged with kOk updates it, and a read must equal it.
 */
class ShadowSlice
{
  public:
    ShadowSlice(std::uint64_t seed, std::uint64_t base, std::uint64_t size)
        : base_(base), bytes_(size)
    {
        fillInitialContent(seed, base, bytes_);
    }

    std::uint64_t base() const { return base_; }
    std::uint64_t size() const { return bytes_.size(); }

    /** Record an acknowledged write. */
    void
    apply(std::uint64_t addr, std::span<const std::uint8_t> data)
    {
        std::memcpy(bytes_.data() + (addr - base_), data.data(),
                    data.size());
    }

    /** True when @p data equals the slice at @p addr. */
    bool
    matches(std::uint64_t addr, std::span<const std::uint8_t> data) const
    {
        return addr >= base_ && addr - base_ + data.size() <= size() &&
               std::memcmp(bytes_.data() + (addr - base_), data.data(),
                           data.size()) == 0;
    }

  private:
    std::uint64_t base_;
    std::vector<std::uint8_t> bytes_;
};

} // namespace perfbench

#endif // PERFBENCH_SHADOW_H
