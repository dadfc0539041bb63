#include "tree/integrity_policy.h"

#include <cstring>

#include "cache/cache_array.h"
#include "support/logging.h"
#include "tree/cached_tree_policy.h"
#include "tree/incremental_policy.h"
#include "tree/l2_controller.h"
#include "tree/naive_policy.h"
#include "tree/null_policy.h"
#include "tree/scheme.h"

namespace cmt
{

IntegrityPolicy::IntegrityPolicy(L2Controller &l2)
    : l2_(l2), events_(l2.events()), memory_(l2.memory()),
      ram_(l2.ram()), hasher_(l2.hasher()), tree_(l2.tree()),
      auth_(l2.auth()), params_(l2.params()), array_(l2.array())
{}

void
IntegrityPolicy::beginWriteBack(std::uint64_t chunk)
{
    tree_.buffersOfChunk(chunk).acquireWrite();
}

void
IntegrityPolicy::finishWriteBack(std::uint64_t block_addr,
                                 const WriteBackCost &cost)
{
    if (cost.reads == 0) {
        writeBackReadsDone(block_addr, cost);
        return;
    }
    WriteBackJob *job = writeBackJobs_.acquire();
    job->self = this;
    job->blockAddr = block_addr;
    job->cost = cost;
    memory_.readChain(cost.readBytes, cost.reads, [job]() {
        IntegrityPolicy *self = job->self;
        const std::uint64_t addr = job->blockAddr;
        const WriteBackCost done = job->cost;
        self->writeBackJobs_.release(job);
        self->writeBackReadsDone(addr, done);
    });
}

void
IntegrityPolicy::writeBackReadsDone(std::uint64_t block_addr,
                                    const WriteBackCost &cost)
{
    const std::uint64_t chunk = tree_.chunkOf(block_addr);
    const std::uint64_t shard = tree_.shardOfChunk(chunk);
    hasher_.hashChain(cost.digestBytes, cost.digests,
                      [this, shard]() {
                          tree_.context(shard).buffers.releaseWrite();
                          l2_.retryPendingMisses();
                      },
                      shard);
    for (unsigned b = 0; b < cost.blockWrites; ++b)
        memory_.write(block_addr + b * params_.blockSize, params_.blockSize);
    std::int64_t cur = tree_.parentOf(chunk);
    for (unsigned c = 0; c < cost.chunkWrites; ++c) {
        cmt_assert(cur >= 0);
        const auto ancestor = static_cast<std::uint64_t>(cur);
        memory_.write(tree_.chunkAddr(ancestor),
                      static_cast<unsigned>(params_.chunkSize));
        cur = tree_.parentOf(ancestor);
    }
}

void
mergeVictim(const CacheArray::Victim &victim, std::span<std::uint8_t> block)
{
    for (unsigned w = 0; w < block.size() / kWordSize; ++w) {
        if ((victim.validWords >> w) & 1) {
            std::memcpy(block.data() + w * kWordSize,
                        victim.data.data() + w * kWordSize, kWordSize);
        }
    }
}

std::unique_ptr<IntegrityPolicy>
makeIntegrityPolicy(Scheme scheme, L2Controller &l2)
{
    switch (scheme) {
      case Scheme::kBase:
        return std::make_unique<NullPolicy>(l2);
      case Scheme::kNaive:
        return std::make_unique<NaivePolicy>(l2);
      case Scheme::kCached:
        return std::make_unique<CachedTreePolicy>(l2);
      case Scheme::kIncremental:
        return std::make_unique<IncrementalPolicy>(l2);
    }
    cmt_panic("unknown scheme %d", static_cast<int>(scheme));
}

} // namespace cmt
