// Positive fixture: header whose includes are all used directly.
#ifndef FIXTURE_TREE_FILL_H
#define FIXTURE_TREE_FILL_H

#include "support/tag.h"

struct ChunkImage
{
    ChunkTag tag;
};

bool verifyChunk(std::uint64_t chunk,
                 const std::vector<std::uint8_t> &image);
void verifySlow(std::uint64_t chunk,
                const std::vector<std::uint8_t> &image);

#endif
