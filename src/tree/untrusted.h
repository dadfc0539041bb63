/**
 * @file
 * Untrusted<T>: bytes read from untrusted RAM that no check has
 * vouched for yet.
 *
 * The paper's invariant (Section 3, ReadAndCheck) is that nothing
 * read from off-chip memory is used until it matches the
 * authenticator its trusted parent holds. ChunkStore's typed reads
 * (readChunk, readSlot, readRange) hand their bytes back wrapped in
 * this type, and only ChunkStore can fill one, so the compiler
 * refuses any use that skips the check. There are exactly three ways
 * to reach the value, each a named member that grep finds:
 *
 *  - verified(): the checked unwrap. It runs Authenticator::verify
 *    itself and yields the bytes only on a match.
 *  - forCheck(): a read-only view for the check step alone, i.e.
 *    Authenticator calls that decide a verdict and the naive memo's
 *    byte-for-byte compare. Nothing computed from it may be stored
 *    or published as trusted state.
 *  - unverified(): the one escape. Every call carries a one-line
 *    comment saying why the bytes may be used unchecked (the fault
 *    hook, the i scheme's old-value read, bytes the caller itself
 *    just wrote, ...).
 *
 * Reads stay zero-copy: a caller-owned Untrusted buffer keeps its
 * capacity across reads, and the rvalue members move the value out.
 */

#ifndef CMT_TREE_UNTRUSTED_H
#define CMT_TREE_UNTRUSTED_H

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "tree/authenticator.h"

namespace cmt
{

class ChunkStore;

/** A value read from untrusted RAM and not yet checked. */
template <typename T>
class Untrusted
{
  public:
    /**
     * The checked unwrap: the bytes, moved out, if they match
     * @p expected under @p auth, else nullopt.
     */
    [[nodiscard]] std::optional<T>
    verified(const Authenticator &auth, const Slot &expected) &&
        requires std::convertible_to<const T &,
                                     std::span<const std::uint8_t>>
    {
        if (!auth.verify(value_, expected))
            return std::nullopt;
        return std::move(value_);
    }

    /** Read-only view for the check step only (see the file
     *  comment). */
    const T &forCheck() const { return value_; }

    /** The escape: the value with no check. Say why at each call. */
    T &unverified() & { return value_; }
    T unverified() && { return std::move(value_); }

  private:
    friend class ChunkStore; // the only writer of value_

    T value_{};
};

} // namespace cmt

#endif // CMT_TREE_UNTRUSTED_H
