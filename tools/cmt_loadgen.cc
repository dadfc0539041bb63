/**
 * @file
 * cmt_loadgen: concurrent load generator + correctness oracle for
 * cmt_served.
 *
 * Every client owns a disjoint slice of the store's protected region
 * and drives a deterministic mixed workload (55% writes, 45% verified
 * reads of blocks it wrote earlier in the run, a periodic sync) from
 * its own connection, keeping a local shadow model of every byte it
 * wrote. A read that disagrees with the shadow is a divergence: the
 * daemon returned bytes that no serialization of the client's own
 * writes could produce. After the load, a verifyStore pass checks
 * the daemon's whole tree. Throughput and p50/p99 request latency go
 * to stderr.
 *
 *   cmt_loadgen --socket PATH [options]
 *
 *     --socket PATH        daemon socket (required)
 *     --store ID           target store id (default 0)
 *     --clients N          concurrent client connections, at most
 *                          1024 (default 8)
 *     --ops N              operations per client (default 2000)
 *     --block B            bytes per operation, a multiple of 8
 *                          (default 64)
 *     --protected-size B   store capacity, must match the daemon
 *                          (default 1 MiB); every client's slice must
 *                          hold at least one block
 *     --seed S             trace seed (default 1)
 *
 * Exit status: 0 clean, 1 divergence/verify/transport failure,
 * 2 usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/client.h"
#include "support/logging.h"
#include "support/parse.h"

using namespace cmt;

namespace
{

/** One thread and one connection per client: bound them. */
constexpr unsigned kMaxClients = 1024;

struct LoadOptions
{
    std::string socketPath;
    std::uint32_t store = 0;
    unsigned clients = 8;
    std::uint64_t opsPerClient = 2000;
    std::uint32_t block = 64;
    std::uint64_t protectedSize = 1u << 20;
    std::uint64_t seed = 1;
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
    std::uint64_t divergences = 0;
    std::string firstDivergence;
    /** Transport-level failure; empty when the trace completed. */
    std::string transportError;
    /** Per-request latency in microseconds. */
    std::vector<double> latencyUs;
};

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

    std::uint64_t rng = opt.seed * 0x2545f4914f6cdd1dull + index;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
        shadow;
    /** Blocks this trace wrote, in write order; reads draw from here
     *  so the oracle never depends on the store's prior content (two
     *  loadgen runs may target one long-lived daemon). */
    std::vector<std::uint64_t> written;
    std::vector<std::uint8_t> data(opt.block);
    std::vector<std::uint8_t> got;

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
        }
        const auto t1 = clock::now();
        rep.latencyUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0)
                .count());
        ++rep.ops;
        // Periodic sync keeps the flush path under concurrent fire.
        if (op % 400 == 399 &&
            !client.syncStore(opt.store, &err)) {
            rep.transportError = "sync: " + err;
            return rep;
        }
    }
    return rep;
}

LoadOptions
parseArgs(int argc, char **argv)
{
    LoadOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("cmt_loadgen", "missing value for %s",
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
            opt.clients = parseFlag<unsigned>("cmt_loadgen", arg,
                                              value(), 1, kMaxClients);
        } else if (arg == "--ops") {
            opt.opsPerClient = count(1);
        } else if (arg == "--block") {
            opt.block = count(1);
        } else if (arg == "--protected-size") {
            opt.protectedSize = parseFlag<std::uint64_t>(
                "cmt_loadgen", arg, value(), 1);
        } else if (arg == "--seed") {
            opt.seed = count(1);
        } else if (arg == "--help" || arg == "-h") {
            inform("usage: cmt_loadgen --socket PATH [--store ID] "
                   "[--clients N] [--ops N] [--block B] "
                   "[--protected-size B] [--seed S]");
            std::exit(0);
        } else {
            usageError("cmt_loadgen", "unknown argument '%s' (try --help)",
                       arg.c_str());
        }
    }
    if (opt.socketPath.empty())
        usageError("cmt_loadgen", "--socket PATH is required");
    if (opt.block % 8 != 0)
        usageError("cmt_loadgen", "--block must be a multiple of 8");
    if (opt.protectedSize / opt.clients < opt.block)
        usageError("cmt_loadgen",
                   "--protected-size %llu leaves %u clients no %u-byte "
                   "block each",
                   static_cast<unsigned long long>(opt.protectedSize),
                   opt.clients, opt.block);
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

} // namespace

int
main(int argc, char **argv)
{
    const LoadOptions opt = parseArgs(argc, argv);

    std::vector<ClientReport> reports(opt.clients);
    const auto wallStart = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (unsigned i = 0; i < opt.clients; ++i)
        threads.emplace_back([&, i] { reports[i] = runClient(opt, i); });
    for (std::thread &t : threads)
        t.join();
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
    std::uint64_t ops = 0;
    std::uint64_t divergences = 0;
    std::vector<double> allLat;
    bool failed = !verifyErr.empty();
    for (const ClientReport &r : reports) {
        ops += r.ops;
        divergences += r.divergences;
        allLat.insert(allLat.end(), r.latencyUs.begin(),
                      r.latencyUs.end());
        if (!r.transportError.empty() || r.divergences != 0)
            failed = true;
    }

    std::sort(allLat.begin(), allLat.end());
    const double p50 = percentile(allLat, 0.50);
    const double p99 = percentile(allLat, 0.99);
    const double throughput =
        wallSeconds > 0 ? static_cast<double>(ops) / wallSeconds : 0;
    std::fprintf(stderr,
                 "  [loadgen] %u client(s) %llu ops in %.3fs: "
                 "%.0f ops/s, p50 %.1f us, p99 %.1f us, "
                 "%llu divergences, tree %s\n",
                 opt.clients, static_cast<unsigned long long>(ops),
                 wallSeconds, throughput, p50, p99,
                 static_cast<unsigned long long>(divergences),
                 treeClean ? "clean" : "INCONSISTENT");

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
