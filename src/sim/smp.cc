#include "sim/smp.h"

#include "cpu/trace.h"
#include "sim/config.h"
#include "sim/system.h"
#include "support/bitops.h"
#include "support/logging.h"
#include "trace/specgen.h"
#include "tree/l2_controller.h"
#include "tree/layout.h"

namespace cmt
{

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

/** The machine half of @p config; the cores run sliceTraces(). */
SystemConfig
machineConfig(const SmpConfig &config)
{
    SystemConfig machine;
    machine.warmupInstructions = config.warmupInstructions;
    machine.measureInstructions = config.measureInstructions;
    machine.core = config.core;
    machine.l2 = config.l2;
    machine.mem = config.mem;
    machine.hash = config.hash;
    return machine;
}

/** Core i runs benchmark i with seed + i, displaced into its slice. */
std::vector<std::unique_ptr<TraceSource>>
sliceTraces(const SmpConfig &config)
{
    cmt_assert(!config.benchmarks.empty());
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (std::size_t i = 0; i < config.benchmarks.size(); ++i) {
        auto gen = std::make_unique<SpecGen>(
            profileFor(config.benchmarks[i]), config.seed + i);
        traces.push_back(std::make_unique<OffsetTrace>(
            std::move(gen), SmpSystem::coreSliceOffset(
                                config.l2, static_cast<unsigned>(i))));
    }
    return traces;
}

} // namespace

SmpSystem::SmpSystem(const SmpConfig &config)
    : benchmarks_(config.benchmarks),
      system_(machineConfig(config), sliceTraces(config))
{
    for (std::size_t i = 0; i < benchmarks_.size(); ++i)
        cmt_assert(coreSliceOffset(config.l2, static_cast<unsigned>(i)) +
                       kSliceBytes <=
                   system_.tree().dataBytes());
}

std::uint64_t
SmpSystem::sliceOffset(unsigned i)
{
    return i * (kSliceBytes + kSliceStagger);
}

std::uint64_t
SmpSystem::coreSliceOffset(const L2Params &l2, unsigned i)
{
    if (l2.shards == 1)
        return sliceOffset(i);
    // Core i lives in shard i % K; cores sharing a shard stack their
    // slices like the single-tree layout. The per-shard stagger keeps
    // slices in different shards off identical L2 sets (shard spans
    // are powers of two, so bare shard bases would alias). The span
    // is ShardRouter's per-shard layout, derived before it exists.
    cmt_assert(isPow2(l2.shards));
    const std::uint64_t shard_bytes =
        TreeLayout(l2.chunkSize, l2.protectedSize / l2.shards)
            .dataBytes();
    const unsigned shard = i % l2.shards;
    const unsigned slot = i / l2.shards;
    return shard * shard_bytes + slot * (kSliceBytes + kSliceStagger) +
           shard * kSliceStagger;
}

SmpResult
SmpSystem::run()
{
    const SimResult machine = system_.run();

    SmpResult result;
    result.cycles = machine.cycles;
    result.aggregateIpc = machine.ipc;
    result.integrityFailures = machine.integrityFailures;
    result.bandwidthBytesPerCycle = machine.bandwidthBytesPerCycle;
    result.verifyBytesPerCycle = machine.verifyBytesPerCycle;
    for (std::size_t i = 0; i < benchmarks_.size(); ++i) {
        SimResult r;
        r.benchmark = benchmarks_[i];
        r.scheme = machine.scheme;
        // run() zeroed every counter at the measured window's start,
        // so a core's commit count is its measured instructions.
        r.instructions =
            system_.core(static_cast<unsigned>(i)).committed();
        r.cycles = machine.cycles;
        r.ipc = static_cast<double>(r.instructions) / r.cycles;
        r.integrityFailures = machine.integrityFailures;
        result.perCore.push_back(r);
    }
    return result;
}

} // namespace cmt
