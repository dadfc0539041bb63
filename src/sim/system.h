/**
 * @file
 * System assembly and run control: builds the cores, caches, hash
 * machinery, bus and DRAM from a SystemConfig, runs warmup + measured
 * windows, and reports the metrics every figure in the paper is
 * built from. One core is the paper's machine; several cores over
 * the same uncore are the multiprogrammed extension of Section 4: a
 * '+'-joined benchmark such as "twolf+gzip" runs one program per
 * core, each in a private slice of the one protected region.
 *
 * Workloads are multiprogrammed, not data-sharing: each core's
 * addresses are displaced into its own slice, so coherence reduces
 * to L2 inclusion (every core's L1 copies are dropped when the shared
 * L2 evicts a block). One tree covers all slices; every core's
 * traffic is verified by the same machinery and contends for the
 * same hash buffers.
 */

#ifndef CMT_SIM_SYSTEM_H
#define CMT_SIM_SYSTEM_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "cpu/trace.h"
#include "mem/backing_store.h"
#include "mem/main_memory.h"
#include "sim/config.h"
#include "support/event.h"
#include "support/stats.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/hash_engine.h"
#include "tree/l2_controller.h"
#include "tree/scheme.h"
#include "tree/shard_router.h"

namespace cmt
{

/** Everything a figure needs from one run. */
struct SimResult
{
    std::string benchmark;
    Scheme scheme = Scheme::kBase;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0;

    /** L2 miss-rate of program data (Figure 4). */
    double l2DataMissRate = 0;
    /** Additional RAM block reads per demand L2 miss (Figure 5a). */
    double extraReadsPerMiss = 0;
    /** DRAM traffic in bytes per cycle (Figure 5b, unnormalised). */
    double bandwidthBytesPerCycle = 0;

    /**
     * Hash-unit throughput in bytes per cycle (the rate at which the
     * machine verifies and maintains the tree). Reported only by a
     * machine with more than one core or more than one shard; the
     * paper's one-core, one-tree machine leaves it zero.
     */
    double verifyBytesPerCycle = 0;

    std::uint64_t l2DemandAccesses = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t integrityFailures = 0;
    std::uint64_t bufferStalls = 0;
    double branchMispredictRate = 0;

    /**
     * Per-core IPC, core i running the mix's program i. Filled by
     * the same rule as verifyBytesPerCycle: more than one core or
     * more than one shard; empty on the paper's machine.
     */
    std::vector<double> perCoreIpc;
};

/**
 * One complete simulated machine: a single uncore (tree, L2, hash
 * engine, bus, DRAM) shared by one or more cores.
 */
class System
{
  public:
    /**
     * @param config  machine + workload parameters; the benchmark
     *                names one specgen program, or a '+'-joined mix
     *                with one core per program (core i runs program
     *                i with seed + i). Panics unless every core's
     *                slice fits in the protected region.
     * @param trace   optional external instruction source (e.g. a
     *                FileTrace) for the one core; when null the
     *                config's benchmark drives the machine
     */
    explicit System(const SystemConfig &config,
                    std::unique_ptr<TraceSource> trace = nullptr);
    ~System();

    /**
     * Run warmup then the measured window: every core commits at
     * least measureInstructions, and fast cores keep running (and
     * contending) until the slowest finishes. @return the metrics of
     * the whole machine; instructions and ipc sum over the cores.
     */
    SimResult run();

    /**
     * Advance the clock until every core has committed @p target
     * instructions or run out of trace. Cycles in which every core
     * is provably stalled are skipped without changing timing.
     * Panics after 5M cycles in which no core commits while no event
     * is pending (deadlock); a longer wait for a pending event (a
     * slow hash unit's digest) is not one.
     */
    void runUntilCommitted(std::uint64_t target);

    /** The next cycle the machine will execute. */
    Cycle cycle() const { return cycle_; }

    /** Dump every registered statistic (post-run diagnostics). */
    void dumpStats(std::ostream &os) const;

    /** Registered statistics (serializers). */
    const StatGroup &stats() const { return stats_; }

    L2Controller &l2() { return *l2_; }
    Core &core(unsigned i = 0) { return *cores_.at(i); }
    ChunkStore &ram() { return *ram_; }
    ShardRouter &tree() { return *tree_; }
    HashEngine &hasher() { return *hasher_; }
    EventQueue &events() { return events_; }

  private:
    SystemConfig config_;
    StatGroup stats_;
    EventQueue events_;
    BackingStore store_;
    std::unique_ptr<ShardRouter> tree_;
    std::unique_ptr<Authenticator> auth_;
    std::unique_ptr<ChunkStore> ram_;
    std::unique_ptr<MainMemory> memory_;
    std::unique_ptr<HashEngine> hasher_;
    std::unique_ptr<L2Controller> l2_;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<Core>> cores_;
    Cycle cycle_ = 0;
};

/** Convenience: build, run, and return the result for a config. */
SimResult simulate(const SystemConfig &config);

/**
 * CPU-address displacement of core @p i's private 4 GB slice. With
 * one shard slices stack through the single tree; with K shards cores
 * go round-robin across shard spans, so their verification traffic
 * parallelises across root registers, buffers and hash lanes.
 */
std::uint64_t coreSliceOffset(const L2Params &l2, unsigned i);

/** REPRO_SCALE environment scaling (1.0 if unset). */
double reproScale();

} // namespace cmt

#endif // CMT_SIM_SYSTEM_H
