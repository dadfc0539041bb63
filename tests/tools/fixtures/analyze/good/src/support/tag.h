// Positive fixture: a type image.h uses directly, so its include of
// this header is not unused.
#ifndef FIXTURE_SUPPORT_TAG_H
#define FIXTURE_SUPPORT_TAG_H

struct ChunkTag
{
    int order;
};

#endif
