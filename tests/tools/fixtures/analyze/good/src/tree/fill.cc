// Positive fixture: every rule passes on this tree.
//
// fillChunk reads untrusted bytes and verifies them on every path
// before returning — the verify-before-use shape the trust-boundary
// pass requires.
#include "tree/fill.h"

std::vector<std::uint8_t>
fillChunk(std::uint64_t chunk)
{
    std::vector<std::uint8_t> image = ram_.readChunk(chunk);
    if (!verifyChunk(chunk, image))
        throw IntegrityError(chunk);
    return image;
}

// Sanitizing through a helper counts: verifyChunk calls verify, so
// the closure marks it verifying and callers become clean.
bool
verifyChunk(std::uint64_t chunk,
            const std::vector<std::uint8_t> &image)
{
    return auth_.verify(chunk, image);
}

// Void helper: it still sanitizes because it reaches verify on every
// path.
void
verifySlow(std::uint64_t chunk,
           const std::vector<std::uint8_t> &image)
{
    if (!auth_.verify(chunk, image))
        throw IntegrityError(chunk);
}

// Both arms of a branch verify before their returns.
std::vector<std::uint8_t>
branchyFill(std::uint64_t chunk, bool fast)
{
    std::vector<std::uint8_t> image = ram_.readChunk(chunk);
    if (fast) {
        if (!verifyChunk(chunk, image))
            throw IntegrityError(chunk);
        return image;
    }
    verifySlow(chunk, image);
    return image;
}

// A deliberate raw-read seam, suppressed the supported way.
// cmt-analyze: allow(trust-boundary)
std::vector<std::uint8_t>
rawImage(std::uint64_t chunk)
{
    return ram_.readChunk(chunk);
}
