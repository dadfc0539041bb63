#include "tree/tree_debug.h"

#include <atomic>
#include <cstdlib>

namespace cmt
{

namespace
{

/** Unresolved sentinel: the env var has not been consulted yet. */
constexpr std::int64_t kFaultUnresolved = INT64_MIN;

std::atomic<std::int64_t> faultSkipShard{kFaultUnresolved};

} // namespace

std::int64_t
faultSkipVerifyShard()
{
    std::int64_t v = faultSkipShard.load(std::memory_order_relaxed);
    if (v == kFaultUnresolved) {
        const char *env = std::getenv("CMT_FAULT_SKIP_VERIFY_SHARD");
        v = env ? std::atoll(env) : -1;
        faultSkipShard.store(v, std::memory_order_relaxed);
    }
    return v;
}

void
setFaultSkipVerifyShard(std::int64_t shard)
{
    faultSkipShard.store(shard, std::memory_order_relaxed);
}

} // namespace cmt
