/**
 * @file
 * Multiprogrammed SMP extension.
 *
 * Section 4 motivates verification with Bob renting out his machine
 * while continuing to use it: several programs share one secure
 * processor complex. SmpSystem builds a System with N cores (each
 * with its own L1s, branch predictor and workload) over its single
 * shared L2Controller, hash engine, bus and protected memory - the
 * natural shared-L2 topology for the paper's machinery, and the
 * setting the authors' follow-up work on snooping-based SMP integrity
 * studies. What is SMP-specific lives here: placing each program in
 * its own slice, and folding the run into per-core results.
 *
 * Workloads are multiprogrammed, not data-sharing: each core's
 * addresses are displaced into a private slice of the protected
 * space, so coherence reduces to L2 inclusion (every core's L1 copies
 * are dropped when the shared L2 evicts a block). One hash tree
 * covers all slices; every core's traffic is verified by the same
 * machinery and contends for the same hash buffers.
 */

#ifndef CMT_SIM_SMP_H
#define CMT_SIM_SMP_H

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "cpu/trace.h"
#include "mem/main_memory.h"
#include "sim/system.h"
#include "tree/hash_engine.h"
#include "tree/l2_controller.h"

namespace cmt
{

/** Per-core result alongside the shared-machine aggregates. */
struct SmpResult
{
    std::vector<SimResult> perCore;
    double aggregateIpc = 0;  ///< total instructions / cycles
    std::uint64_t cycles = 0;
    std::uint64_t integrityFailures = 0;
    double bandwidthBytesPerCycle = 0;
    /** Hash-unit bytes per cycle (verification throughput); nonzero
     *  only for sharded runs, mirroring SimResult. */
    double verifyBytesPerCycle = 0;
};

/** Multiprogrammed-SMP configuration. */
struct SmpConfig
{
    /** One benchmark name per core. */
    std::vector<std::string> benchmarks = {"gcc", "swim"};
    std::uint64_t seed = 1;
    std::uint64_t warmupInstructions = 200'000;
    /** Measured instructions per core. */
    std::uint64_t measureInstructions = 500'000;

    CoreParams core;
    L2Params l2;
    MemTimingParams mem;
    HashEngineParams hash;

    SmpConfig()
    {
        // Room for four staggered 4 GB per-core slices in one tree
        // (the backing store is sparse, so the capacity is free).
        l2.protectedSize = 32ULL << 30;
    }
};

/** Address-displacing wrapper: gives a core a private memory slice. */
class OffsetTrace : public TraceSource
{
  public:
    OffsetTrace(std::unique_ptr<TraceSource> inner,
                std::uint64_t data_offset)
        : inner_(std::move(inner)), offset_(data_offset)
    {}

    bool
    next(TraceInstr &out) override
    {
        if (!inner_->next(out))
            return false;
        if (out.type == InstrType::kLoad ||
            out.type == InstrType::kStore)
            out.addr += offset_;
        out.pc += offset_;
        return true;
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t offset_;
};

/** N programs on one System, each in a private memory slice. */
class SmpSystem
{
  public:
    explicit SmpSystem(const SmpConfig &config);

    /** Run warmup + measured window on every core. */
    SmpResult run();

    /** The machine: one core per benchmark over the shared uncore. */
    System &system() { return system_; }

    /** Single-tree CPU-address displacement of core @p i's slice. */
    static std::uint64_t sliceOffset(unsigned i);

    /**
     * Shard-aware slice placement actually used for core @p i: with
     * one shard it equals sliceOffset(); with K shards cores go
     * round-robin across shard spans so their verification traffic
     * parallelises across root registers, buffers and hash lanes.
     */
    static std::uint64_t coreSliceOffset(const L2Params &l2, unsigned i);

  private:
    std::vector<std::string> benchmarks_;
    System system_;
};

} // namespace cmt

#endif // CMT_SIM_SMP_H
