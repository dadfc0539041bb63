/**
 * @file
 * Timing model of the on-chip hash unit (Section 6.1/6.2).
 *
 * The real unit digests 512-bit blocks over ~80 rounds; the paper
 * models it with two parameters: a fixed latency (cycles from job
 * start to digest) and a throughput (bytes/cycle the pipeline can
 * absorb - 3.2 GB/s at 1 GHz default, one 64-byte hash every 20
 * cycles). Jobs are served in order; a job's start is delayed until
 * the pipeline has drained enough to accept it.
 *
 * Chains: when a policy needs N digests that all gate one completion
 * (a root-to-leaf ancestor path, or the two h_k terms of a MAC
 * update), hashChain() admits them as one pipelined batch - the
 * messages stream through back-to-back, so occupancy is the sum of
 * the per-message occupancies and one latency covers the chain. For
 * jobs issued at the same instant on the same lane this completes at
 * exactly the cycle the last of N separate hash() calls would, while
 * scheduling one event instead of N (see DESIGN.md §11).
 *
 * The *values* of digests come from the functional layer; this class
 * only answers "when is that digest ready".
 */

#ifndef CMT_TREE_HASH_ENGINE_H
#define CMT_TREE_HASH_ENGINE_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/event.h"
#include "support/stats.h"

namespace cmt
{

/** Hash-unit parameters (defaults: Table 1). */
struct HashEngineParams
{
    /** Cycles from job acceptance to digest availability. */
    unsigned latency = 80;
    /** Sustained digest bandwidth in bytes per cycle (3.2 = 3.2 GB/s
     *  at a 1 GHz clock). */
    double throughputBytesPerCycle = 3.2;
};

/**
 * In-order pipelined hash unit. With @p lanes > 1 the unit replicates
 * into independent pipelines (one per integrity shard): jobs on
 * different lanes overlap, jobs on one lane stay in order. Lane count
 * is hardware provisioning, not a per-run knob, so it is a
 * constructor argument rather than a HashEngineParams field.
 */
class HashEngine
{
  public:
    /**
     * Slowest accepted hash unit, in bytes per cycle. At this floor
     * the largest message (2^32 bytes) occupies 2^52 cycles, so one
     * message's occupancy and the sums built from it stay inside
     * Cycle; the constructor panics below it (and on NaN).
     */
    static constexpr double kMinThroughputBytesPerCycle = 0x1p-20;

    HashEngine(EventQueue &events, const HashEngineParams &params,
               StatGroup &stats, unsigned lanes = 1);

    /**
     * Enqueue a digest of @p bytes bytes on @p lane (clamped modulo
     * the lane count, so shard ids are safe to pass directly);
     * @p on_done fires when the digest would be available.
     */
    template <typename F>
    void
    hash(unsigned bytes, F &&on_done, std::uint64_t lane = 0)
    {
        events_.schedule(admit(bytes, 1, lane),
                         std::forward<F>(on_done));
    }

    /**
     * Enqueue a pipelined chain of digests on @p lane, one per entry
     * of @p message_bytes; @p on_done fires once, when the last
     * digest would be available. Counts len(message_bytes) jobs.
     */
    template <typename F>
    void
    hashChain(std::span<const unsigned> message_bytes, F &&on_done,
              std::uint64_t lane = 0)
    {
        events_.schedule(admitChain(message_bytes, lane),
                         std::forward<F>(on_done));
    }

    /**
     * Uniform chain: @p count messages of @p bytes each - the shape
     * every ancestor-path verification takes (all levels hash one
     * chunk-sized image).
     */
    template <typename F>
    void
    hashChain(unsigned bytes, unsigned count, F &&on_done,
              std::uint64_t lane = 0)
    {
        events_.schedule(admit(bytes, count, lane),
                         std::forward<F>(on_done));
    }

    unsigned lanes() const
    {
        return static_cast<unsigned>(lanes_.size());
    }

    /** Cycles the pipeline front-ends have been occupied (summed
     *  across lanes). */
    Cycle busyCycles() const;

    /** One lane's front-end occupancy. @p lane is clamped the same
     *  way job submission clamps it, so the accounting here always
     *  matches where the jobs actually ran. */
    Cycle laneBusyCycles(std::uint64_t lane) const;

    /** Bytes digested by one lane; summing over every lane equals
     *  stat_bytes by construction. */
    std::uint64_t laneBytes(std::uint64_t lane) const;

    Counter stat_jobs;
    Counter stat_bytes;

  private:
    /** Per-lane pipeline state: admission horizon plus the occupancy
     *  and byte tallies attributed to this lane. */
    struct Lane
    {
        /** Next cycle this lane's front-end can accept a job. */
        Cycle nextFree = 0;
        Cycle busy = 0;
        std::uint64_t bytes = 0;
    };

    /** Admit @p count messages of @p bytes each; returns the cycle
     *  the last digest is available. */
    Cycle admit(unsigned bytes, unsigned count, std::uint64_t lane);

    /** Admit a mixed-size chain; returns the completion cycle. */
    Cycle admitChain(std::span<const unsigned> message_bytes,
                     std::uint64_t lane);

    EventQueue &events_;
    HashEngineParams params_;
    std::vector<Lane> lanes_;
};

} // namespace cmt

#endif // CMT_TREE_HASH_ENGINE_H
