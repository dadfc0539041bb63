/**
 * @file
 * cmt_served: verification-as-a-service over a unix-domain socket.
 *
 * The daemon owns one or more integrity-protected stores (a sharded
 * Merkle tree over a sparse RAM image, src/verify) and serves
 * read/write/verify/sync/save requests from many concurrent clients
 * over the length-prefixed binary protocol of src/serve. One event
 * loop serves every connection, running each request to completion
 * on the thread that read it (src/serve/server.h). SIGINT or SIGTERM
 * (or a client kShutdown) stops it gracefully: requests already read
 * finish, replies flush, and - when --state-dir is given - every
 * store is persisted through the crash-safe tmp+rename save path, so
 * the next --load starts from a verified snapshot.
 *
 *   cmt_served --socket PATH [options]
 *
 *     --socket PATH          listening socket path (required)
 *     --stores N             independent stores to host (default 1)
 *     --shards K             subtrees per store, a power of two
 *                            (default 4)
 *     --protected-size B     bytes protected per store, a multiple of
 *                            K (default 1 MiB)
 *     --cache-chunks N       trusted chunk cache entries: 0 (naive) or
 *                            at least 2 * tree levels + 2 (default 64)
 *     --state-dir DIR        save stores here on shutdown / kSave
 *     --load                 restore saved state at startup
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <string>

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"
#include "support/bitops.h"
#include "support/logging.h"
#include "support/parse.h"
#include "verify/merkle_memory.h"

using namespace cmt;

namespace
{

std::atomic<serve::Server *> g_server{nullptr};

extern "C" void
handleStopSignal(int)
{
    // requestStop is async-signal-safe: atomic store + eventfd write.
    serve::Server *server = g_server.load();
    if (server != nullptr)
        server->requestStop();
}

struct DaemonOptions
{
    std::string socketPath;
    std::string stateDir;
    unsigned stores = 1;
    unsigned shards = 4;
    std::uint64_t protectedSize = 1u << 20;
    unsigned cacheChunks = 64;
    bool load = false;
};

DaemonOptions
parseArgs(int argc, char **argv)
{
    DaemonOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("cmt_served", "missing value for %s",
                           arg.c_str());
            return argv[++i];
        };
        const auto count = [&] {
            return parseFlag<unsigned>("cmt_served", arg, value(), 0,
                                       kMaxCount);
        };
        if (arg == "--socket") {
            opt.socketPath = value();
        } else if (arg == "--stores") {
            opt.stores = count();
        } else if (arg == "--shards") {
            opt.shards = count();
        } else if (arg == "--protected-size") {
            opt.protectedSize = parseFlag<std::uint64_t>(
                "cmt_served", arg, value(), 1);
        } else if (arg == "--cache-chunks") {
            opt.cacheChunks = count();
        } else if (arg == "--state-dir") {
            opt.stateDir = value();
        } else if (arg == "--load") {
            opt.load = true;
        } else if (arg == "--help" || arg == "-h") {
            inform("usage: cmt_served --socket PATH [--stores N] "
                   "[--shards K] [--protected-size B] "
                   "[--cache-chunks N] [--state-dir DIR] [--load]");
            std::exit(0);
        } else {
            usageError("cmt_served", "unknown argument '%s' (try --help)",
                       arg.c_str());
        }
    }
    if (opt.socketPath.empty())
        usageError("cmt_served", "--socket PATH is required");
    if (opt.stores == 0)
        usageError("cmt_served", "--stores must be at least 1");
    if (!isPow2(opt.shards))
        usageError("cmt_served", "--shards must be a power of two");
    if (opt.protectedSize % opt.shards != 0)
        usageError("cmt_served",
                   "--protected-size %llu is not a multiple of --shards %u",
                   static_cast<unsigned long long>(opt.protectedSize),
                   opt.shards);
    if (opt.load && opt.stateDir.empty())
        usageError("cmt_served", "--load requires --state-dir");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const DaemonOptions opt = parseArgs(argc, argv);

    MerkleConfig mc;
    mc.protectedSize = opt.protectedSize;
    mc.cacheChunks = opt.cacheChunks;
    mc.shards = opt.shards;
    const std::size_t minChunks = MerkleMemory::minCacheChunks(mc);
    if (mc.cacheChunks != 0 && mc.cacheChunks < minChunks)
        usageError("cmt_served",
                   "--cache-chunks must be 0 (naive) or at least %zu for "
                   "this tree",
                   minChunks);

    serve::ServeConfig sc;
    sc.socketPath = opt.socketPath;

    serve::Server server(sc);
    for (unsigned i = 0; i < opt.stores; ++i) {
        const std::string name = "store" + std::to_string(i);
        auto store = std::make_unique<serve::ServeStore>(name, mc);
        if (!opt.stateDir.empty())
            store->setStatePaths(opt.stateDir + "/" + name + ".image",
                                 opt.stateDir + "/" + name + ".roots");
        if (opt.load) {
            bool loaded = false;
            std::string err;
            if (!store->loadStateIfPresent(&loaded, &err))
                cmt_fatal("cmt_served: restoring %s: %s", name.c_str(),
                          err.c_str());
            inform("cmt_served: %s %s", name.c_str(),
                   loaded ? "restored from saved snapshot"
                          : "starting fresh (no snapshot found)");
        }
        server.addStore(std::move(store));
    }

    std::string err;
    if (!server.start(&err))
        cmt_fatal("cmt_served: %s", err.c_str());

    g_server.store(&server);
    struct sigaction sa = {};
    sa.sa_handler = handleStopSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    inform("cmt_served: listening on %s (%u stores, %u shards, "
           "%llu bytes each, one event loop)",
           opt.socketPath.c_str(), opt.stores, mc.shards,
           static_cast<unsigned long long>(opt.protectedSize));

    server.waitUntilStopped();
    g_server.store(nullptr);

    int rc = 0;
    if (!opt.stateDir.empty()) {
        for (std::uint32_t i = 0; i < server.storeCount(); ++i) {
            serve::ServeStore *store = server.store(i);
            std::string saveErr;
            if (store->saveState(&saveErr)) {
                inform("cmt_served: saved %s", store->name().c_str());
            } else {
                warn("cmt_served: saving %s failed: %s",
                     store->name().c_str(), saveErr.c_str());
                rc = 1;
            }
        }
    }
    const serve::ServerStats stats = server.statsSnapshot();
    inform("cmt_served: served %llu requests on %llu connections "
           "(%llu reads, %llu writes, %llu verify failures)",
           static_cast<unsigned long long>(stats.requests),
           static_cast<unsigned long long>(stats.connections),
           static_cast<unsigned long long>(stats.readOps),
           static_cast<unsigned long long>(stats.writeOps),
           static_cast<unsigned long long>(stats.verifyFailures));
    return rc;
}
