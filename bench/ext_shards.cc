/**
 * @file
 * Extension figure: sharded integrity trees.
 *
 * The paper hangs the whole protected region under one tree with one
 * set of root registers, so every check serialises behind a single
 * VerifyBuffer and hash pipeline. ShardRouter partitions the region
 * into K independent subtrees; the machine provisions one hash lane
 * and one buffer set per shard, and coreSliceOffset() places core
 * slices round-robin across shards, so programs verify concurrently.
 *
 * Two sweeps over the four-program SMP mix:
 *
 *  1. Verify-bandwidth scaling: the naive scheme hashes the full
 *     ancestor walk on every miss, saturating a single hash pipeline;
 *     hash bytes per cycle directly measures how much verification
 *     the machine sustains as the shard count grows.
 *  2. IPC under the c scheme, across shard count and region size: the
 *     practical speedup once the trusted cache absorbs most checks.
 *
 * K = 1 is the paper's machine and anchors both scaling columns.
 *
 * Unlike ext_smp, this figure reports verify_bytes_per_cycle even
 * for the K = 1 anchor rows. Every row runs the same mix, so --filter
 * either keeps the whole figure or, matching none of the mix's
 * programs, is a usage error (filterMixes()).
 */

#include "bench/common.h"
#include "sim/config.h"
#include "sim/system.h"
#include "support/table.h"
#include "tree/hash_engine.h"
#include "tree/scheme.h"

namespace cmt::bench
{

namespace
{

/** The four-program mix every row runs. */
const Mix kMix = {"twolf", "gzip", "vpr", "swim"};

SystemConfig
shardConfig(Scheme scheme, unsigned shards,
            std::uint64_t protected_size, double hash_throughput)
{
    SystemConfig cfg;
    cfg.warmupInstructions = 100'000;
    cfg.measureInstructions = 250'000;
    cfg.scale(reproScale());
    cfg.l2.scheme = scheme;
    cfg.l2.sizeBytes = 4 << 20;
    cfg.l2.assoc = 8;
    cfg.l2.shards = shards;
    cfg.l2.protectedSize = protected_size;
    cfg.hash.throughputBytesPerCycle = hash_throughput;
    return cfg;
}

constexpr unsigned kShardCounts[] = {1, 2, 4, 8};
// Both region sizes hold the four staggered 4 GB slices; the larger
// one adds a tree level, deepening every ancestor walk.
constexpr std::uint64_t kRegions[] = {32ULL << 30, 64ULL << 30};

} // namespace

Renderer
extShards(Sweep &sweep, const Options &opt)
{
    // Keeps kMix or exits with a usage error.
    filterMixes(opt, "ext_shards", {kMix});

    // Sweep 1: verify-bandwidth scaling. The paper's 3.2 B/cycle
    // hash unit already outruns the 1.6 B/cycle data bus, so a single
    // pipeline can never look like the bottleneck; a 0.4 B/cycle unit
    // (cheap hash hardware) makes verification the K = 1 limiter and
    // lets the sweep show lanes scaling until the bus takes over.
    constexpr double kSlowHash = 0.4;
    // Every row, the K = 1 anchor included, reports verify bandwidth.
    for (const unsigned shards : kShardCounts)
        addSmpRow(sweep, "naive:s" + std::to_string(shards),
                  shardConfig(Scheme::kNaive, shards, kRegions[0],
                              kSlowHash),
                  kMix, true);
    // Sweep 2: end-to-end IPC with the paper's hash unit.
    for (const std::uint64_t region : kRegions)
        for (const unsigned shards : kShardCounts)
            addSmpRow(sweep,
                      "c:" + std::to_string(region >> 30) + "GB:s" +
                          std::to_string(shards),
                      shardConfig(Scheme::kCached, shards, region,
                                  HashEngineParams{}
                                      .throughputBytesPerCycle),
                      kMix, true);

    return [](std::ostream &os, Rows &rows) {
        header(os, "Extension",
               "sharded trees: parallel verification across subtrees",
               baseConfig("twolf", Scheme::kCached));

        Table bw("verify bandwidth vs shard count "
                 "(naive scheme, 0.4 B/cyc hash unit, 32GB)");
        bw.header({"shards", "verify B/cyc", "scaling vs s1", "agg ipc",
                   "ipc vs s1"});
        double naive_verify = 0;
        double naive_ipc = 0;
        for (const unsigned shards : kShardCounts) {
            const SimResult &r = rows.take();
            if (shards == 1) {
                naive_verify = r.verifyBytesPerCycle;
                naive_ipc = r.ipc;
            }
            bw.row({std::to_string(shards),
                    Table::num(r.verifyBytesPerCycle),
                    naive_verify != 0
                        ? Table::num(r.verifyBytesPerCycle /
                                     naive_verify) +
                              "x"
                        : "-",
                    Table::num(r.ipc),
                    naive_ipc != 0 ? Table::num(r.ipc / naive_ipc) + "x"
                                   : "-"});
        }
        bw.print(os);

        Table t("aggregate IPC vs shard count and region size (c scheme)");
        t.header({"region", "shards", "agg ipc", "ipc vs s1",
                  "verify B/cyc"});
        for (const std::uint64_t region : kRegions) {
            double base_ipc = 0;
            for (const unsigned shards : kShardCounts) {
                const SimResult &r = rows.take();
                if (shards == 1)
                    base_ipc = r.ipc;
                t.row({std::to_string(region >> 30) + "GB",
                       std::to_string(shards), Table::num(r.ipc),
                       base_ipc != 0 ? Table::num(r.ipc / base_ipc) + "x"
                                     : "-",
                       Table::num(r.verifyBytesPerCycle)});
            }
        }
        t.print(os);
        os << "\nEach shard owns private root registers, check buffers\n"
           << "and a hash lane; programs whose slices land in different\n"
           << "shards verify concurrently instead of serialising behind\n"
           << "the paper's single root. Scaling stops at the shared\n"
           << "1.6 B/cycle data bus: once lanes outrun it, verification\n"
           << "is no longer the machine's bottleneck.\n";
    };
}

} // namespace cmt::bench
