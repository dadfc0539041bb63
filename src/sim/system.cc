#include "sim/system.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "cpu/core.h"
#include "cpu/trace.h"
#include "mem/main_memory.h"
#include "sim/config.h"
#include "support/bitops.h"
#include "support/logging.h"
#include "trace/specgen.h"
#include "tree/authenticator.h"
#include "tree/chunk_store.h"
#include "tree/hash_engine.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"
#include "tree/layout.h"
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

/** Private 4 GB slice per core inside the shared protected space. */
constexpr std::uint64_t kSliceBytes = 4ULL << 30;

/**
 * Per-core stagger within the slice. Slices are a power-of-two apart,
 * so without it every program's regions would land on identical L2
 * sets (the set index uses low address bits only) - a conflict
 * pathology a real OS avoids through distinct physical mappings.
 * 51 MB is 64 KB-aligned but not a multiple of the 2 MB set span.
 */
constexpr std::uint64_t kSliceStagger = 51ULL << 20;

/** Data bytes of one shard: ShardRouter's per-shard layout, derived
 *  before the router exists. */
std::uint64_t
shardDataBytes(const L2Params &l2)
{
    return TreeLayout(l2.chunkSize, l2.protectedSize / l2.shards)
        .dataBytes();
}

} // namespace

std::uint64_t
coreSliceOffset(const L2Params &l2, unsigned i)
{
    if (l2.shards == 1)
        return i * (kSliceBytes + kSliceStagger);
    // Core i lives in shard i % K; cores sharing a shard stack their
    // slices like the single-tree layout. The per-shard stagger keeps
    // slices in different shards off identical L2 sets (shard spans
    // are powers of two, so bare shard bases would alias).
    cmt_assert(isPow2(l2.shards));
    const unsigned shard = i % l2.shards;
    const unsigned slot = i / l2.shards;
    return shard * shardDataBytes(l2) +
           slot * (kSliceBytes + kSliceStagger) + shard * kSliceStagger;
}

namespace
{

/**
 * The machine's traces, one per core. An external @p trace drives the
 * one core alone. Otherwise the config's benchmark names the
 * workload: one program is the paper's machine, and a '+'-joined mix
 * ("twolf+gzip") puts program i on core i with seed + i, displaced
 * into core i's slice. Panics unless every slice fits in the
 * protected region.
 */
std::vector<std::unique_ptr<TraceSource>>
workloadTraces(const SystemConfig &config,
               std::unique_ptr<TraceSource> trace)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    if (trace) {
        traces.push_back(std::move(trace));
        return traces;
    }
    std::vector<std::string> programs(1);
    for (const char c : config.benchmark) {
        if (c == '+')
            programs.emplace_back();
        else
            programs.back() += c;
    }
    if (programs.size() == 1) {
        traces.push_back(std::make_unique<SpecGen>(
            profileFor(programs[0]), config.seed));
        return traces;
    }
    const std::uint64_t protected_bytes =
        config.l2.shards * shardDataBytes(config.l2);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const std::uint64_t offset =
            coreSliceOffset(config.l2, static_cast<unsigned>(i));
        cmt_assert(offset + kSliceBytes <= protected_bytes);
        traces.push_back(std::make_unique<OffsetTrace>(
            std::make_unique<SpecGen>(profileFor(programs[i]),
                                      config.seed + i),
            offset));
    }
    return traces;
}

} // namespace

System::System(const SystemConfig &config,
               std::unique_ptr<TraceSource> trace)
    : config_(config), traces_(workloadTraces(config, std::move(trace)))
{
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
        // A long wait for a pending event (one digest of a very slow
        // hash unit) is not a deadlock: retries are event-driven, so
        // only an empty queue means nothing can unblock the run.
        if (cycle_ - last_progress > kDeadlockCycles && events_.empty()) {
            cmt_panic("no commit progress for 5M cycles at cycle "
                      "%llu (deadlock?)",
                      static_cast<unsigned long long>(cycle_));
        }
        // Cycle skip: while every core is provably stalled, each tick
        // until the earliest wake-up (the next event, a fetch stall
        // window closing, or - with no event pending - the deadlock
        // bound) is a no-op - advance the clock there directly. A
        // core that must tick reports 0, which blocks the skip: one
        // active core can reach shared state (the L2, its
        // back-invalidations) on any tick. Timing is unchanged; only
        // empty loop iterations are elided.
        Cycle next = Core::kNoWake;
        for (const auto &core : cores_)
            next = std::min(next, core->stalledUntil());
        if (next == 0)
            continue;
        next = std::min(next, events_.empty()
                                  ? last_progress + kDeadlockCycles
                                  : events_.nextEventTime());
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
    r.integrityFailures = l2_->integrityFailures();
    r.bufferStalls = l2_->stat_bufferStallEvents.value();
    r.branchMispredictRate =
        branches ? static_cast<double>(mispredicts) / branches : 0.0;
    // Only an SMP or sharded machine reports the split: the paper's
    // one-core, one-tree rows keep the JSON shape of the baselines.
    if (cores_.size() > 1 || config_.l2.shards != 1) {
        r.verifyBytesPerCycle =
            static_cast<double>(hasher_->stat_bytes.value()) / r.cycles;
        // run() zeroed every counter at the measured window's start,
        // so a core's commit count is its measured instructions.
        for (const auto &core : cores_)
            r.perCoreIpc.push_back(
                static_cast<double>(core->committed()) / r.cycles);
    }
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
