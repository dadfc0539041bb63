#include "sim/system.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "cpu/core.h"
#include "cpu/trace.h"
#include "mem/main_memory.h"
#include "sim/config.h"
#include "support/logging.h"
#include "trace/specgen.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/hash_engine.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"
#include "tree/scheme.h"
#include "tree/shard_router.h"

namespace cmt
{

double
reproScale()
{
    // Parsed once: sweeps call this per configuration, possibly from
    // many worker threads, and getenv is not guaranteed thread-safe
    // against itself on all platforms.
    static std::once_flag once;
    static double scale = 1.0;
    std::call_once(once, [] {
        if (const char *env = std::getenv("REPRO_SCALE")) {
            const double v = std::atof(env);
            if (v > 0)
                scale = v;
            else
                warn("ignoring invalid REPRO_SCALE='%s'", env);
        }
    });
    return scale;
}

void
printConfigTable(std::ostream &os, const SystemConfig &config)
{
    const auto &c = config.core;
    const auto &l2 = config.l2;
    os << "Architectural parameters (Table 1)\n"
       << "  clock                 1 GHz\n"
       << "  L1 I/D caches         " << (c.l1SizeBytes >> 10)
       << "KB, " << c.l1Assoc << "-way, " << c.l1BlockSize
       << "B line, " << c.l1HitLatency << "-cycle\n"
       << "  L2 cache              unified, " << (l2.sizeBytes >> 10)
       << "KB, " << l2.assoc << "-way, " << l2.blockSize << "B line, "
       << l2.hitLatency << "-cycle\n"
       << "  memory                " << config.mem.dramLatency
       << "-cycle latency, bus "
       << (8.0 * config.mem.busWidthBytes /
           config.mem.cpuCyclesPerBusCycle / 8.0)
       << " GB/s (" << config.mem.busWidthBytes << "B @ 1/"
       << config.mem.cpuCyclesPerBusCycle << " CPU clock)\n"
       << "  I/D TLBs              " << c.tlbEntries << "-entry, "
       << c.tlbAssoc << "-way, " << c.tlbMissPenalty
       << "-cycle miss\n"
       << "  fetch/issue/commit    " << c.fetchWidth << "/"
       << c.issueWidth << "/" << c.commitWidth << " per cycle\n"
       << "  RUU / LSQ             " << c.windowSize << " / "
       << c.lsqSize << "\n"
       << "  hash unit             " << config.hash.latency
       << "-cycle latency, " << config.hash.throughputBytesPerCycle
       << " GB/s, " << l2.readBufferEntries << "/"
       << l2.writeBufferEntries << " read/write buffers\n"
       << "  scheme                " << schemeName(l2.scheme)
       << ", chunk " << l2.chunkSize << "B, protected "
       << (l2.protectedSize >> 30) << "GB";
    if (l2.shards != 1)
        os << ", " << l2.shards << " shards";
    os << "\n";
}

namespace
{

/** The single-core machine's trace: @p trace, or the config's specgen
 *  benchmark when none is given. */
std::vector<std::unique_ptr<TraceSource>>
singleTrace(const SystemConfig &config, std::unique_ptr<TraceSource> trace)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(trace ? std::move(trace)
                           : std::make_unique<SpecGen>(
                                 profileFor(config.benchmark),
                                 config.seed));
    return traces;
}

} // namespace

System::System(const SystemConfig &config,
               std::unique_ptr<TraceSource> trace)
    : System(config, singleTrace(config, std::move(trace)))
{}

System::System(const SystemConfig &config,
               std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(config), traces_(std::move(traces))
{
    cmt_assert(!traces_.empty());
    tree_ = std::make_unique<ShardRouter>(
        config_.l2.chunkSize, config_.l2.protectedSize,
        config_.l2.shards, config_.l2.readBufferEntries,
        config_.l2.writeBufferEntries);
    const Authenticator::Kind kind =
        config_.l2.scheme == Scheme::kIncremental
            ? Authenticator::Kind::kXorMac
            : config_.l2.authKind;
    auth_ = std::make_unique<Authenticator>(kind, config_.l2.key,
                                            config_.l2.blockSize,
                                            config_.l2.timestamps);
    ram_ = std::make_unique<ChunkStore>(store_, *tree_, *auth_);
    memory_ = std::make_unique<MainMemory>(events_, *ram_, config_.mem,
                                           stats_);
    // One hash-unit lane per shard: independent subtrees verify in
    // parallel pipelines.
    hasher_ = std::make_unique<HashEngine>(events_, config_.hash,
                                           stats_, config_.l2.shards);

    L2Params l2_params = config_.l2;
    l2_params.authKind = kind;
    l2_ = std::make_unique<L2Controller>(
        events_, *memory_, *ram_, *hasher_, *tree_, *auth_, l2_params,
        stats_, makeIntegrityPolicy);

    for (const auto &trace : traces_)
        cores_.push_back(std::make_unique<Core>(events_, *l2_, *trace,
                                                config_.core, stats_));
    // Inclusion: an L2 eviction drops every core's L1 copies.
    l2_->onBackInvalidate = [this](std::uint64_t addr, unsigned len) {
        for (auto &core : cores_)
            core->invalidateL1(addr, len);
    };
}

System::~System() = default;

void
System::runUntilCommitted(std::uint64_t target)
{
    constexpr Cycle kDeadlockCycles = 5'000'000;
    // Progress is a commit by any core: the counters only grow within
    // one call (run() resets them between calls, never inside one).
    const auto committed = [this] {
        std::uint64_t total = 0;
        for (const auto &core : cores_)
            total += core->committed();
        return total;
    };
    const auto finished = [this, target] {
        for (const auto &core : cores_) {
            if (core->committed() < target && !core->done())
                return false;
        }
        return true;
    };

    std::uint64_t last_committed = committed();
    Cycle last_progress = cycle_;
    while (!finished()) {
        events_.runUntil(cycle_);
        for (auto &core : cores_)
            core->tick();
        ++cycle_;
        const std::uint64_t now_committed = committed();
        if (now_committed != last_committed) {
            last_committed = now_committed;
            last_progress = cycle_;
            continue;
        }
        if (cycle_ - last_progress > kDeadlockCycles) {
            cmt_panic("no commit progress for 5M cycles at cycle "
                      "%llu (deadlock?)",
                      static_cast<unsigned long long>(cycle_));
        }
        // Cycle skip: while every core is provably stalled, each tick
        // until the earliest wake-up (the next event, a fetch stall
        // window closing, or the deadlock bound) is a no-op - advance
        // the clock there directly. A core that must tick reports 0,
        // which blocks the skip: one active core can reach shared
        // state (the L2, its back-invalidations) on any tick. Timing
        // is unchanged; only empty loop iterations are elided.
        Cycle next = last_progress + kDeadlockCycles;
        for (const auto &core : cores_)
            next = std::min(next, core->stalledUntil());
        if (next == 0)
            continue;
        if (!events_.empty())
            next = std::min(next, events_.nextEventTime());
        if (next > cycle_)
            cycle_ = next;
    }
}

SimResult
System::run()
{
    // Warmup: fill caches and grow the tree, then reset every stat.
    // The reset zeroes each core's commit count, so the measured
    // window ends once every core has committed measureInstructions.
    runUntilCommitted(config_.warmupInstructions);
    stats_.resetAll();
    const Cycle measure_start = cycle_;
    runUntilCommitted(config_.measureInstructions);

    SimResult r;
    r.benchmark = config_.benchmark;
    r.scheme = config_.l2.scheme;
    r.cycles = cycle_ - measure_start;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    for (const auto &core : cores_) {
        r.instructions += core->committed();
        branches += core->stat_branches.value();
        mispredicts += core->stat_mispredicts.value();
    }
    r.ipc = static_cast<double>(r.instructions) / r.cycles;

    r.l2DemandAccesses = l2_->stat_reads.value();
    r.l2DemandMisses = l2_->stat_readMisses.value();
    r.l2DataMissRate =
        r.l2DemandAccesses
            ? static_cast<double>(r.l2DemandMisses) / r.l2DemandAccesses
            : 0.0;

    const std::uint64_t total_reads = memory_->stat_reads.value();
    const std::uint64_t demand_reads =
        l2_->stat_demandBlockReads.value();
    r.extraReadsPerMiss =
        r.l2DemandMisses
            ? static_cast<double>(total_reads - demand_reads) /
                  r.l2DemandMisses
            : 0.0;
    r.bandwidthBytesPerCycle =
        static_cast<double>(memory_->bytesTransferred()) / r.cycles;
    // Only sharded runs report verify bandwidth: single-tree rows
    // must keep the exact JSON shape of the committed baselines.
    if (config_.l2.shards != 1)
        r.verifyBytesPerCycle =
            static_cast<double>(hasher_->stat_bytes.value()) / r.cycles;
    r.integrityFailures = l2_->integrityFailures();
    r.bufferStalls = l2_->stat_bufferStallEvents.value();
    r.branchMispredictRate =
        branches ? static_cast<double>(mispredicts) / branches : 0.0;
    return r;
}

void
System::dumpStats(std::ostream &os) const
{
    stats_.dump(os);
}

SimResult
simulate(const SystemConfig &config)
{
    System system(config);
    return system.run();
}

} // namespace cmt
