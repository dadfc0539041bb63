#include "tree/hash_engine.h"

#include <algorithm>
#include <cmath>

#include "support/event.h"
#include "support/logging.h"
#include "support/stats.h"

namespace cmt
{

HashEngine::HashEngine(EventQueue &events, const HashEngineParams &params,
                       StatGroup &stats, unsigned lanes)
    : stat_jobs(stats, "hash.jobs", "digest jobs issued"),
      stat_bytes(stats, "hash.bytes", "bytes digested"),
      events_(events), params_(params),
      lanes_(lanes == 0 ? 1 : lanes)
{
    cmt_assert(params_.throughputBytesPerCycle >=
               kMinThroughputBytesPerCycle);
}

Cycle
HashEngine::busyCycles() const
{
    Cycle total = 0;
    for (const Lane &lane : lanes_)
        total += lane.busy;
    return total;
}

Cycle
HashEngine::laneBusyCycles(std::uint64_t lane) const
{
    return lanes_[lane % lanes_.size()].busy;
}

std::uint64_t
HashEngine::laneBytes(std::uint64_t lane) const
{
    return lanes_[lane % lanes_.size()].bytes;
}

Cycle
HashEngine::admit(unsigned bytes, unsigned count, std::uint64_t lane_id)
{
    cmt_assert(count > 0);
    Lane &lane = lanes_[lane_id % lanes_.size()];

    // Occupancy is the sum of the per-message occupancies (each
    // message rounds up on its own - a chain is N pipelined jobs, not
    // one long message), exactly what N back-to-back hash() calls at
    // this instant would reserve.
    const Cycle per_message = static_cast<Cycle>(
        std::ceil(bytes / params_.throughputBytesPerCycle));
    const Cycle occupancy = per_message * count;

    stat_jobs += count;
    stat_bytes += static_cast<std::uint64_t>(bytes) * count;

    const Cycle start = std::max(events_.now(), lane.nextFree);
    lane.nextFree = start + occupancy;
    lane.busy += occupancy;
    lane.bytes += static_cast<std::uint64_t>(bytes) * count;

    return start + occupancy + params_.latency;
}

Cycle
HashEngine::admitChain(std::span<const unsigned> message_bytes,
                       std::uint64_t lane_id)
{
    cmt_assert(!message_bytes.empty());
    Lane &lane = lanes_[lane_id % lanes_.size()];

    Cycle occupancy = 0;
    std::uint64_t total_bytes = 0;
    for (const unsigned bytes : message_bytes) {
        occupancy += static_cast<Cycle>(
            std::ceil(bytes / params_.throughputBytesPerCycle));
        total_bytes += bytes;
    }

    stat_jobs += message_bytes.size();
    stat_bytes += total_bytes;

    const Cycle start = std::max(events_.now(), lane.nextFree);
    lane.nextFree = start + occupancy;
    lane.busy += occupancy;
    lane.bytes += total_bytes;

    return start + occupancy + params_.latency;
}

} // namespace cmt
