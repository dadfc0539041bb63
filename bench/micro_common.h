/**
 * @file
 * Shared plumbing for the micro-benchmark binaries (micro_crypto,
 * micro_tree, micro_sim), wiring them onto the same Sweep engine as
 * the figure harnesses: --jobs/--json/--filter/--progress and
 * regress-comparable JSON rows.
 *
 * A micro workload is a fixed, deterministic operation count (scaled
 * by REPRO_SCALE like the figure windows) plus a checksum folded over
 * every output it produces. The deterministic triple (ops, bytes,
 * checksum) is packed into SimResult so cmt_regress can diff micro
 * rows exactly like figure rows:
 *
 *   instructions             <- operations executed
 *   cycles                   <- output checksum (FNV-1a)
 *   bandwidth_bytes_per_cycle<- payload bytes processed
 *   ipc                      <- payload bytes per operation
 *
 * The only timing signal is the per-run host_seconds the sweep JSON
 * already records; human-readable throughput goes to stderr so stdout
 * stays a pure function of the configuration. These rows check
 * determinism; host-time measurement belongs to perfbench/.
 */

#ifndef CMT_BENCH_MICRO_COMMON_H
#define CMT_BENCH_MICRO_COMMON_H

#include <functional>
#include <string>

#include "bench/common.h"
#include "sim/config.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/table.h"

namespace cmt::bench
{

/** Deterministic outcome of one micro workload. */
struct MicroResult
{
    /** Operations executed (the workload's natural unit). */
    std::uint64_t ops = 0;
    /** Payload bytes processed across all operations. */
    std::uint64_t bytes = 0;
    /** FNV-1a digest folded over every output the workload produced;
     *  any behavioural change in the code under test moves it. */
    std::uint64_t checksum = kFnvBasis;

    static constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

    /** Fold raw bytes into the checksum. */
    void
    fold(const void *data, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            checksum ^= b[i];
            checksum *= 1099511628211ull;
        }
    }

    /** Fold one integer into the checksum. */
    void
    fold64(std::uint64_t v)
    {
        fold(&v, sizeof v);
    }
};

/** An operation count with the harness REPRO_SCALE applied. */
inline std::uint64_t
scaledOps(std::uint64_t base)
{
    const auto n = static_cast<std::uint64_t>(
        static_cast<double>(base) * reproScale());
    return n == 0 ? 1 : n;
}

/**
 * Memoization key for a micro job. The label names the workload and
 * the op count pins its size; the domain string keeps micro keys from
 * ever aliasing SystemConfig/SmpConfig fingerprints. Bump the salt
 * when a workload's meaning changes so stale cached rows die.
 */
inline std::uint64_t
microFingerprint(const std::string &domain, const std::string &label,
                 std::uint64_t ops, unsigned shards = 1)
{
    MicroResult fp;
    fp.fold("micro-v1:", 9);
    fp.fold(domain.data(), domain.size());
    fp.fold64(0x7f);
    fp.fold(label.data(), label.size());
    fp.fold64(ops);
    // Folded only when sharding is on so pre-shards cached rows stay
    // valid (mirrors the SystemConfig fingerprint's conditional tag).
    if (shards != 1)
        fp.fold64(shards);
    return fp.checksum;
}

/**
 * Enqueue one micro workload, honouring --filter. The thunk runs the
 * fixed-size workload and returns its deterministic MicroResult; the
 * wrapper packs it into the SimResult row documented above.
 */
inline void
addMicro(Sweep &sweep, const Options &opt, const std::string &label,
         std::uint64_t ops, std::function<MicroResult()> fn,
         unsigned shards = 1)
{
    if (!opt.filter.empty() &&
        label.find(opt.filter) == std::string::npos)
        return;
    // The tag config makes the JSON row self-describing: benchmark
    // names the workload, the measure window records the op count and
    // l2.shards carries the workload's shard dimension.
    SystemConfig tag;
    tag.benchmark = label;
    tag.warmupInstructions = 0;
    tag.measureInstructions = ops;
    tag.l2.shards = shards;
    sweep.add(
        label, tag,
        [fn = std::move(fn), label, ops](const SystemConfig &) {
            const MicroResult m = fn();
            SimResult r;
            r.benchmark = label;
            r.instructions = m.ops;
            r.cycles = m.checksum;
            r.bandwidthBytesPerCycle =
                static_cast<double>(m.bytes);
            r.ipc = m.ops != 0 ? static_cast<double>(m.bytes) /
                                     static_cast<double>(m.ops)
                               : 0.0;
            return r;
        },
        microFingerprint(opt.figure, label, ops, shards));
}

/**
 * Read every entry back in submission order: a deterministic stdout
 * table (regress-comparable by eye as well as via --json) plus
 * per-row host throughput on stderr.
 */
inline void
reportMicro(Sweep &sweep, std::size_t rows, const char *what)
{
    Table t(what);
    t.header({"workload", "shards", "ops", "bytes", "checksum"});
    for (std::size_t i = 0; i < rows; ++i) {
        const unsigned shards =
            sweep.runner().job(sweep.cursor()).config.l2.shards;
        const SweepEntry &e = sweep.takeEntry();
        if (!e.ok) {
            t.row({e.label, std::to_string(shards), "ERROR", "-",
                   e.error});
            continue;
        }
        char sum[32];
        std::snprintf(sum, sizeof sum, "%016llx",
                      static_cast<unsigned long long>(
                          e.result.cycles));
        const auto bytes = static_cast<std::uint64_t>(
            e.result.bandwidthBytesPerCycle);
        t.row({e.label, std::to_string(shards),
               std::to_string(e.result.instructions),
               std::to_string(bytes), sum});
        if (e.hostSeconds > 0) {
            std::fprintf(
                stderr, "  [micro] %-28s %10.3f Mops/s %10.3f MB/s\n",
                e.label.c_str(),
                static_cast<double>(e.result.instructions) / 1e6 /
                    e.hostSeconds,
                static_cast<double>(bytes) / 1e6 / e.hostSeconds);
        }
    }
    t.print(std::cout);
}

} // namespace cmt::bench

#endif // CMT_BENCH_MICRO_COMMON_H
