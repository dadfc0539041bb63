// Compile-fail fixture for the untrusted_unwrap ctest: the skip-verify
// fault's shape against the real ChunkStore. Returning readChunk's
// image with its verify behind a flag must not compile, because an
// Untrusted<T> converts to nothing. Built with -DCONSUME, the function
// takes the checked unwrap instead and must compile: that control
// proves the failure comes from the unchecked use and not from a
// broken include path.
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tree/authenticator.h"
#include "tree/chunk_store.h"

std::vector<std::uint8_t>
fillBlock(cmt::ChunkStore &ram, const cmt::Authenticator &auth,
          std::uint64_t chunk, const cmt::Slot &expected,
          bool skip_verify)
{
#ifdef CONSUME
    (void)skip_verify;
    std::optional<std::vector<std::uint8_t>> image =
        ram.readChunk(chunk).verified(auth, expected);
    if (!image)
        throw std::runtime_error("integrity check failed");
    return std::move(*image);
#else
    std::vector<std::uint8_t> image = ram.readChunk(chunk);
    if (!skip_verify && !auth.verify(image, expected))
        throw std::runtime_error("integrity check failed");
    return image;
#endif
}
