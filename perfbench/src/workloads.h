/**
 * @file
 * The benchmark's four workloads and the metric lists every run
 * reports (see README.md for why each exists).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench
{

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured phase. */
    double seconds = 10;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Scratch directory for sockets, snapshots and span files,
     *  relative to the working directory (unix socket paths are
     *  short). */
    std::string workDir;
    /** Directory holding cmt_served and cmt_sim. */
    std::string binDir;
};

/** What one run measured, keyed by the names of endToEndMetrics()
 *  (untraced) or perLayerMetrics() (traced). A metric left out is
 *  reported as 0: a layer the workload never enters, or a run that
 *  failed before measuring. */
struct RunOutcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
};

/** Name and unit of one reported metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every untraced run reports all of them, in
 *  this order (BENCHMARK.json lists the same). */
inline const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"ops_per_s", "1/s"},
        {"latency_p50_us", "us"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

/** Per-layer metrics: every traced run reports all of them, in this
 *  order (BENCHMARK.json lists the same). */
inline const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"crypto.md5_ns_per_chunk", "ns"},
        {"tree.integrity_pct", "%"},
        {"tree.policy_pct", "%"},
        {"cpu.tick_pct", "%"},
        {"trace.next_pct", "%"},
        {"support.event_run_pct", "%"},
        {"tree.misses", "count"},
        {"tree.evicts", "count"},
        {"tree.hash_jobs", "count"},
        {"tree.hash_bytes", "count"},
        {"tree.hash_busy_cycles", "count"},
        {"tree.buffer_stalls", "count"},
        {"tree.l2_misses", "count"},
        {"mem.dram_reads", "count"},
        {"mem.dram_bytes", "count"},
        {"cpu.ticks", "count"},
        {"trace.instrs", "count"},
        {"support.events", "count"},
        {"sim.ipc", "instr/cycle"},
        {"serve.store_pct", "%"},
        {"serve.outside_store_pct", "%"},
        {"serve.store_busy_pct", "%"},
        {"serve.rtt_p99_over_p50", "x"},
        {"serve.requests", "count"},
        {"serve.bytes_in", "count"},
        {"serve.bytes_out", "count"},
        {"verify.cache_hits", "count"},
        {"verify.cache_misses", "count"},
        {"verify.auth_computes", "count"},
        {"verify.untrusted_reads", "count"},
        {"verify.load_state_pct", "%"},
        {"bench.calib_ns", "ns"},
        {"bench.trace_overhead", "x"},
    };
    return specs;
}

bool isSimWorkload(const std::string &name);
bool isServedWorkload(const std::string &name);

RunOutcome runSimWorkload(const RunOptions &opt);
RunOutcome runServedWorkload(const RunOptions &opt);

/**
 * Host cost of the crypto layer: ns per chunk digest when
 * Md5::digestChain hashes chains of @p depth messages of
 * @p chunk_bytes each (one ancestor-path verification).
 */
double md5NsPerChunk(unsigned depth, unsigned chunk_bytes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
