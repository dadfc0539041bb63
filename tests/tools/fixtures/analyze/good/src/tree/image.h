// Positive fixture: a header whose one include is used directly.
#ifndef FIXTURE_TREE_IMAGE_H
#define FIXTURE_TREE_IMAGE_H

#include "support/tag.h"

struct ChunkImage
{
    ChunkTag tag;
};

#endif
