/**
 * @file
 * cmt_loadgen: concurrent load generator + correctness oracle for
 * cmt_served.
 *
 * Every client owns a disjoint slice of the store's protected region
 * and drives a deterministic mixed workload (55% writes, 45% verified
 * reads of blocks it wrote earlier in the run, a periodic sync) from
 * its own connection, keeping a local shadow model of every byte it
 * wrote. A read that disagrees with the
 * shadow is a divergence: the daemon returned bytes that no
 * serialization of the client's own writes could produce. Because
 * slices are disjoint and the daemon guarantees per-connection
 * ordering, the per-client FNV checksum stream is independent of how
 * clients interleave - an 8-client run must produce byte-identical
 * results to --serial replaying the same traces one connection at a
 * time, and `cmt_regress A.json B.json` proves it (host timing is the
 * one field regress ignores).
 *
 * Output follows the canonical Sweep JSON schema (one regress-
 * comparable row per client plus a "total" row, deterministic
 * result/config blocks); p50/p99 request latency and throughput go to
 * stderr and to a doc-level "timing" object that regress does not
 * compare.
 *
 *   cmt_loadgen --socket PATH [options]
 *
 *     --socket PATH        daemon socket (required)
 *     --store ID           target store id (default 0)
 *     --clients N          concurrent client connections (default 8)
 *     --ops N              operations per client
 *                          (default 2000, scaled by REPRO_SCALE)
 *     --block B            bytes per operation (default 64)
 *     --protected-size B   store capacity, must match the daemon
 *                          (default 1 MiB)
 *     --seed S             trace seed (default 1)
 *     --serial             run the same traces on one connection at a
 *                          time (the determinism oracle)
 *     --json PATH          write the sweep document here
 *
 * Exit status: 0 clean, 1 divergence/verify/transport failure,
 * 2 usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/client.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/parse.h"

using namespace cmt;

namespace
{

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct LoadOptions
{
    std::string socketPath;
    std::string jsonPath;
    std::uint32_t store = 0;
    unsigned clients = 8;
    std::uint64_t opsPerClient = 2000;
    std::uint32_t block = 64;
    std::uint64_t protectedSize = 1u << 20;
    std::uint64_t seed = 1;
    bool serial = false;
};

/** Deterministic per-client trace state (splitmix64). */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct ClientReport
{
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = kFnvBasis;
    std::uint64_t divergences = 0;
    std::string firstDivergence;
    /** Transport-level failure; empty when the trace completed. */
    std::string transportError;
    /** Per-request latency in microseconds. */
    std::vector<double> latencyUs;
    double wallSeconds = 0;
};

void
fold(std::uint64_t &sum, const void *data, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        sum ^= b[i];
        sum *= kFnvPrime;
    }
}

void
fold64(std::uint64_t &sum, std::uint64_t v)
{
    fold(sum, &v, sizeof v);
}

/** Run one client's whole trace over its own connection. */
ClientReport
runClient(const LoadOptions &opt, unsigned index)
{
    using clock = std::chrono::steady_clock;
    ClientReport rep;
    rep.latencyUs.reserve(opt.opsPerClient);

    serve::Client client;
    std::string err;
    // The daemon may still be mid-start when the first client knocks.
    bool up = false;
    for (int attempt = 0; attempt < 50 && !up; ++attempt) {
        up = client.connectTo(opt.socketPath, &err);
        if (!up)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
    }
    if (!up) {
        rep.transportError = err;
        return rep;
    }

    const std::uint64_t sliceBytes =
        opt.protectedSize / opt.clients / opt.block * opt.block;
    const std::uint64_t sliceStart =
        static_cast<std::uint64_t>(index) * sliceBytes;
    const std::uint64_t blocksInSlice = sliceBytes / opt.block;
    if (blocksInSlice == 0) {
        rep.transportError = "protected region too small for this "
                             "many clients";
        return rep;
    }

    std::uint64_t rng = opt.seed * 0x2545f4914f6cdd1dull + index;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
        shadow;
    /** Blocks this trace wrote, in write order; reads draw from here
     *  so the oracle never depends on the store's prior content (two
     *  loadgen runs may target one long-lived daemon). */
    std::vector<std::uint64_t> written;
    std::vector<std::uint8_t> data(opt.block);
    std::vector<std::uint8_t> got;

    const auto wallStart = clock::now();
    for (std::uint64_t op = 0; op < opt.opsPerClient; ++op) {
        const std::uint64_t pick = nextRand(rng);
        const bool write =
            written.empty() || nextRand(rng) % 100 < 55;
        const std::uint64_t addr =
            write ? sliceStart + (pick % blocksInSlice) * opt.block
                  : written[pick % written.size()];
        const auto t0 = clock::now();
        if (write) {
            for (std::uint32_t b = 0; b < opt.block; b += 8) {
                const std::uint64_t v = nextRand(rng);
                std::memcpy(data.data() + b, &v,
                            std::min<std::size_t>(8, opt.block - b));
            }
            const serve::CallResult r =
                client.writeBlock(opt.store, addr, data, &err);
            if (r != serve::CallResult::kOk) {
                rep.transportError = "write @" + std::to_string(addr) +
                                     ": " + err;
                return rep;
            }
            shadow[addr] = data;
            written.push_back(addr);
            fold64(rep.checksum, addr * 2 + 1);
            fold(rep.checksum, data.data(), data.size());
        } else {
            const serve::CallResult r = client.readBlock(
                opt.store, addr, opt.block, &got, &err);
            if (r != serve::CallResult::kOk) {
                rep.transportError = "read @" + std::to_string(addr) +
                                     ": " + err;
                return rep;
            }
            const auto it = shadow.find(addr);
            const bool match = it != shadow.end() && got == it->second;
            if (!match) {
                ++rep.divergences;
                if (rep.firstDivergence.empty())
                    rep.firstDivergence =
                        "read @" + std::to_string(addr) +
                        " disagrees with this client's own writes";
            }
            fold64(rep.checksum, addr * 2);
            fold(rep.checksum, got.data(), got.size());
        }
        const auto t1 = clock::now();
        rep.latencyUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0)
                .count());
        rep.bytes += opt.block;
        ++rep.ops;
        // Periodic sync keeps the flush path under concurrent fire.
        if (op % 400 == 399 &&
            !client.syncStore(opt.store, &err)) {
            rep.transportError = "sync: " + err;
            return rep;
        }
    }
    rep.wallSeconds =
        std::chrono::duration<double>(clock::now() - wallStart)
            .count();
    return rep;
}

LoadOptions
parseArgs(int argc, char **argv)
{
    LoadOptions opt;
    const double scale = reproScale();
    opt.opsPerClient = static_cast<std::uint64_t>(2000 * scale);
    if (opt.opsPerClient == 0)
        opt.opsPerClient = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cmt_fatal("cmt_loadgen: missing value for %s",
                          arg.c_str());
            return argv[++i];
        };
        const auto count = [&](unsigned min) {
            return parseFlag<unsigned>("cmt_loadgen", arg, value(), min,
                                       kMaxCount);
        };
        if (arg == "--socket") {
            opt.socketPath = value();
        } else if (arg == "--store") {
            opt.store = count(0);
        } else if (arg == "--clients") {
            opt.clients = count(1);
        } else if (arg == "--ops") {
            opt.opsPerClient = count(1);
        } else if (arg == "--block") {
            opt.block = count(1);
        } else if (arg == "--protected-size") {
            opt.protectedSize = parseFlag<std::uint64_t>(
                "cmt_loadgen", arg, value(), 1);
        } else if (arg == "--seed") {
            opt.seed = count(1);
        } else if (arg == "--serial") {
            opt.serial = true;
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--help" || arg == "-h") {
            inform("usage: cmt_loadgen --socket PATH [--store ID] "
                   "[--clients N] [--ops N] [--block B] "
                   "[--protected-size B] [--seed S] [--serial] "
                   "[--json PATH]");
            std::exit(0);
        } else {
            cmt_fatal("cmt_loadgen: unknown argument '%s' (try "
                      "--help)",
                      arg.c_str());
        }
    }
    if (opt.socketPath.empty())
        cmt_fatal("cmt_loadgen: --socket PATH is required");
    if (opt.block == 0 || opt.block % 8 != 0)
        cmt_fatal("cmt_loadgen: --block must be a positive multiple "
                  "of 8");
    return opt;
}

/** Percentile over a sorted sample set. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** One regress-comparable row in the micro packing convention. */
Json
rowJson(const std::string &label, const ClientReport &rep,
        std::uint64_t plannedOps)
{
    SweepJob job;
    job.label = label;
    job.config.benchmark = label;
    job.config.warmupInstructions = 0;
    job.config.measureInstructions = plannedOps;

    SweepEntry entry;
    entry.label = label;
    entry.hostSeconds = rep.wallSeconds;
    if (!rep.transportError.empty()) {
        entry.ok = false;
        entry.error = rep.transportError;
    } else if (rep.divergences != 0) {
        entry.ok = false;
        entry.error = std::to_string(rep.divergences) +
                      " divergences; first: " + rep.firstDivergence;
    } else {
        entry.result.benchmark = label;
        entry.result.instructions = rep.ops;
        entry.result.cycles = rep.checksum;
        entry.result.bandwidthBytesPerCycle =
            static_cast<double>(rep.bytes);
        entry.result.ipc =
            rep.ops != 0 ? static_cast<double>(rep.bytes) /
                               static_cast<double>(rep.ops)
                         : 0.0;
    }
    return toJson(job, entry);
}

} // namespace

int
main(int argc, char **argv)
{
    const LoadOptions opt = parseArgs(argc, argv);

    std::vector<ClientReport> reports(opt.clients);
    const auto wallStart = std::chrono::steady_clock::now();
    if (opt.serial) {
        for (unsigned i = 0; i < opt.clients; ++i)
            reports[i] = runClient(opt, i);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(opt.clients);
        for (unsigned i = 0; i < opt.clients; ++i)
            threads.emplace_back([&, i] {
                reports[i] = runClient(opt, i);
            });
        for (std::thread &t : threads)
            t.join();
    }
    const double wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();

    // Whole-tree verification after the storm: the daemon's tree must
    // still be self-consistent.
    bool treeClean = false;
    std::string verifyErr;
    {
        serve::Client probe;
        std::string err;
        if (probe.connectTo(opt.socketPath, &err) &&
            probe.verifyStore(opt.store, &treeClean, &err)) {
            if (!treeClean)
                verifyErr = "daemon-side verifyAll found "
                            "inconsistent chunks";
        } else {
            verifyErr = "verify pass failed: " + err;
        }
    }

    // Aggregate + report.
    ClientReport total;
    std::vector<double> allLat;
    bool failed = !verifyErr.empty();
    for (unsigned i = 0; i < opt.clients; ++i) {
        const ClientReport &r = reports[i];
        total.ops += r.ops;
        total.bytes += r.bytes;
        fold64(total.checksum, r.checksum);
        total.divergences += r.divergences;
        allLat.insert(allLat.end(), r.latencyUs.begin(),
                      r.latencyUs.end());
        if (!r.transportError.empty() || r.divergences != 0)
            failed = true;
    }
    total.wallSeconds = wallSeconds;
    if (!verifyErr.empty())
        total.transportError = verifyErr;

    std::sort(allLat.begin(), allLat.end());
    const double p50 = percentile(allLat, 0.50);
    const double p99 = percentile(allLat, 0.99);
    const double throughput =
        wallSeconds > 0 ? static_cast<double>(total.ops) / wallSeconds
                        : 0;
    std::fprintf(stderr,
                 "  [loadgen] %u client(s)%s %llu ops in %.3fs: "
                 "%.0f ops/s, p50 %.1f us, p99 %.1f us, "
                 "%llu divergences, tree %s\n",
                 opt.clients, opt.serial ? " (serial)" : "",
                 static_cast<unsigned long long>(total.ops),
                 wallSeconds, throughput, p50, p99,
                 static_cast<unsigned long long>(total.divergences),
                 treeClean ? "clean" : "INCONSISTENT");

    if (!opt.jsonPath.empty()) {
        Json doc = Json::object();
        doc.set("figure", std::string("cmt_loadgen"));
        doc.set("repro_scale", reproScale());
        doc.set("jobs", opt.clients);
        Json runs = Json::array();
        for (unsigned i = 0; i < opt.clients; ++i)
            runs.push(rowJson("client" + std::to_string(i),
                              reports[i], opt.opsPerClient));
        runs.push(rowJson("total", total,
                          opt.opsPerClient * opt.clients));
        doc.set("runs", std::move(runs));
        // Timing sidecar: regress compares result/config blocks only,
        // so the latency numbers ride along without gating anything.
        Json timing = Json::object();
        timing.set("wall_seconds", wallSeconds);
        timing.set("ops_per_second", throughput);
        timing.set("p50_latency_us", p50);
        timing.set("p99_latency_us", p99);
        doc.set("timing", std::move(timing));
        std::ofstream os(opt.jsonPath);
        if (!os)
            cmt_fatal("cmt_loadgen: cannot write %s",
                      opt.jsonPath.c_str());
        doc.write(os, 2);
        std::fprintf(stderr, "  [loadgen] wrote %s\n",
                     opt.jsonPath.c_str());
    }

    for (unsigned i = 0; i < opt.clients; ++i) {
        const ClientReport &r = reports[i];
        if (!r.transportError.empty())
            warn("cmt_loadgen: client%u: %s", i,
                 r.transportError.c_str());
        else if (r.divergences != 0)
            warn("cmt_loadgen: client%u: %llu divergences (%s)", i,
                 static_cast<unsigned long long>(r.divergences),
                 r.firstDivergence.c_str());
    }
    if (!verifyErr.empty())
        warn("cmt_loadgen: %s", verifyErr.c_str());
    return failed ? 1 : 0;
}
