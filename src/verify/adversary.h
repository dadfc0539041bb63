/**
 * @file
 * Adversary toolkit for the paper's threat model: everything outside
 * the processor die - RAM contents and the bus - is attacker
 * controlled. These helpers express the canonical attacks so tests
 * and examples read like the paper's Section 4.4/5.5 narratives.
 */

#ifndef CMT_VERIFY_ADVERSARY_H
#define CMT_VERIFY_ADVERSARY_H

#include <cstdint>
#include <vector>

#include "mem/storage.h"

namespace cmt
{

/** Hands-on access to untrusted storage. */
class Adversary
{
  public:
    explicit Adversary(Storage &ram) : ram_(ram) {}

    /** Flip one bit of RAM. */
    void
    flipBit(std::uint64_t addr, unsigned bit)
    {
        std::uint8_t b;
        ram_.read(addr, {&b, 1});
        b ^= static_cast<std::uint8_t>(1u << (bit & 7));
        ram_.write(addr, {&b, 1});
    }

    /** Overwrite a byte range with chosen values. */
    void
    overwrite(std::uint64_t addr, std::span<const std::uint8_t> data)
    {
        ram_.write(addr, data);
    }

    /** Record a byte range for later replay. The adversary *is* the
     *  untrusted side: raw unverified reads are its whole purpose. */
    std::vector<std::uint8_t>
    capture(std::uint64_t addr, std::size_t len)
    {
        std::vector<std::uint8_t> snapshot(len);
        ram_.read(addr, snapshot);
        return snapshot;
    }

    /** Replay a previously captured range (the freshness attack). */
    void
    replay(std::uint64_t addr, const std::vector<std::uint8_t> &snapshot)
    {
        ram_.write(addr, snapshot);
    }

  private:
    Storage &ram_;
};

} // namespace cmt

#endif // CMT_VERIFY_ADVERSARY_H
