/**
 * @file
 * IncrementalPolicy: the i algorithm (Scheme::kIncremental,
 * Section 5.6).
 *
 * Shares the whole cached-tree miss path (ReadAndCheckChunk) with
 * CachedTreePolicy, but chunk authenticators are incremental XOR-MACs
 * with one-bit timestamps: a dirty write-back reads the block's old
 * value, computes two h_k terms, and XOR-patches the parent slot -
 * touching one block instead of re-hashing the whole chunk.
 */

#ifndef CMT_TREE_INCREMENTAL_POLICY_H
#define CMT_TREE_INCREMENTAL_POLICY_H

#include <deque>
#include <vector>

#include "cache/cache_array.h"
#include "tree/cached_tree_policy.h"
#include "tree/l2_controller.h"
#include "tree/untrusted.h"

namespace cmt
{

/** Cached tree with incremental XOR-MAC write-backs. */
class IncrementalPolicy final : public CachedTreePolicy
{
  public:
    explicit IncrementalPolicy(L2Controller &l2);

    void evictDirty(const CacheArray::Victim &victim) override;

  private:
    /** evictDirty's old and new block images; capacity is kept, so a
     *  write-back allocates nothing. */
    struct BlockImages
    {
        Untrusted<std::vector<std::uint8_t>> oldBlock;
        std::vector<std::uint8_t> newBlock;
    };
    /** One pair per evictDirty nesting depth; a deque keeps the outer
     *  pairs in place while a nested write-back adds a level. */
    std::deque<BlockImages> blockImages_;
    unsigned depth_ = 0;
};

} // namespace cmt

#endif // CMT_TREE_INCREMENTAL_POLICY_H
