/**
 * @file
 * cmt_sim: command-line front end to the secure-processor simulator.
 *
 *   cmt_sim [options]
 *     --bench <name>      one of the nine specgen benchmarks (gcc...)
 *     --trace <file>      drive the core from a CMT trace file instead
 *     --scheme <s>        base | naive | cached | incremental
 *     --l2-size <bytes>   L2 capacity            (default 1048576;
 *                         --l2-block x 4 ways x a power of two)
 *     --l2-block <bytes>  L2 line size           (default 64; a
 *                         power of two >= the 32 B L1 line)
 *     --chunk <bytes>     tree chunk size        (default = block;
 *                         a power of two >= 32, a multiple of block)
 *     --shards <k>        independent subtrees   (default 1; a power
 *                         of two)
 *     --buffers <n>       hash read/write buffer entries (default 16;
 *                         at least 1)
 *     --hash-gbps <f>     hash throughput        (default 3.2)
 *     --no-spec           block until checks complete (ablation)
 *     --encrypt           enable the privacy extension
 *     --warmup <n>        warmup instructions    (default 200000)
 *     --instr <n>         measured instructions  (default 1000000)
 *     --seed <n>          workload seed          (default 1)
 *     --stats             dump every counter after the run
 *     --json <path>       write config/result/stats as JSON
 *
 * The run goes through the shared SweepRunner (a sweep of one), so a
 * panicking configuration reports an error and exits non-zero
 * instead of aborting mid-simulation.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "sim/config.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/bitops.h"
#include "support/parse.h"
#include "support/json.h"
#include "trace/specgen.h"
#include "trace/trace_file.h"
#include "tree/scheme.h"

using namespace cmt;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr << "usage: cmt_sim [--bench NAME | --trace FILE] "
                 "[--scheme base|naive|cached|incremental]\n"
                 "  [--l2-size N] [--l2-block N] [--chunk N] "
                 "[--shards K] [--buffers N] [--hash-gbps F]\n"
                 "  [--no-spec] [--encrypt] [--warmup N] [--instr N] "
                 "[--seed N] [--stats] [--json PATH]\n";
    std::exit(2);
}

Scheme
parseScheme(const std::string &s)
{
    if (s == "base")
        return Scheme::kBase;
    if (s == "naive")
        return Scheme::kNaive;
    if (s == "cached" || s == "c" || s == "m")
        return Scheme::kCached;
    if (s == "incremental" || s == "i")
        return Scheme::kIncremental;
    usageError("cmt_sim", "unknown scheme '%s'", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    std::string trace_path;
    std::string json_path;
    bool dump_stats = false;
    bool chunk_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        const auto u64 = [&] {
            return parseFlag<std::uint64_t>("cmt_sim", arg, value());
        };
        const auto uint = [&] {
            return parseFlag<unsigned>("cmt_sim", arg, value());
        };
        if (arg == "--bench") {
            cfg.benchmark = value();
            const auto &names = specBenchmarks();
            if (std::find(names.begin(), names.end(), cfg.benchmark) ==
                names.end())
                usageError("cmt_sim", "unknown benchmark '%s'",
                           cfg.benchmark.c_str());
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--scheme") {
            cfg.l2.scheme = parseScheme(value());
        } else if (arg == "--l2-size") {
            cfg.l2.sizeBytes = u64();
        } else if (arg == "--l2-block") {
            cfg.l2.blockSize = uint();
        } else if (arg == "--chunk") {
            cfg.l2.chunkSize = u64();
            chunk_set = true;
        } else if (arg == "--shards") {
            cfg.l2.shards = uint();
        } else if (arg == "--buffers") {
            cfg.l2.readBufferEntries = uint();
            cfg.l2.writeBufferEntries = cfg.l2.readBufferEntries;
        } else if (arg == "--hash-gbps") {
            cfg.hash.throughputBytesPerCycle =
                parseFlag<double>("cmt_sim", arg, value());
        } else if (arg == "--no-spec") {
            cfg.l2.speculativeChecks = false;
        } else if (arg == "--encrypt") {
            cfg.l2.encryptData = true;
        } else if (arg == "--warmup") {
            cfg.warmupInstructions = u64();
        } else if (arg == "--instr") {
            cfg.measureInstructions = u64();
        } else if (arg == "--seed") {
            cfg.seed = u64();
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--json") {
            json_path = value();
        } else {
            usage();
        }
    }
    // The L2 serves whole L1 lines, so a block holds at least one.
    if (!isPow2(cfg.l2.blockSize) ||
        cfg.l2.blockSize < cfg.core.l1BlockSize)
        usageError("cmt_sim",
                   "--l2-block must be a power of two of at least %u",
                   cfg.core.l1BlockSize);
    if (!chunk_set)
        cfg.l2.chunkSize = cfg.l2.blockSize;
    if (!isPow2(cfg.l2.shards))
        usageError("cmt_sim", "--shards must be a power of two");
    if (!isPow2(cfg.l2.chunkSize) || cfg.l2.chunkSize < 32)
        usageError("cmt_sim",
                   "--chunk must be a power of two of at least 32");
    if (cfg.l2.chunkSize % cfg.l2.blockSize != 0)
        usageError("cmt_sim", "--chunk must be a multiple of --l2-block");
    // The L2 indexes its sets with a mask.
    const std::uint64_t set_bytes =
        std::uint64_t{cfg.l2.blockSize} * cfg.l2.assoc;
    if (cfg.l2.sizeBytes % set_bytes != 0 ||
        !isPow2(cfg.l2.sizeBytes / set_bytes))
        usageError("cmt_sim",
                   "--l2-size must be --l2-block x %u ways x a power of "
                   "two",
                   cfg.l2.assoc);
    if (cfg.l2.readBufferEntries == 0)
        usageError("cmt_sim", "--buffers must be at least 1");

    printConfigTable(std::cout, cfg);

    // Side channel out of the single-job sweep: the runner only
    // returns SimResult, but --stats/--json want the full registry.
    std::string stats_text;
    Json stats_json;

    SweepRunner::Options ropt;
    ropt.jobs = 1;
    ropt.simulateFn = [&](const SystemConfig &c) {
        std::unique_ptr<System> system;
        if (trace_path.empty()) {
            system = std::make_unique<System>(c);
        } else {
            system = std::make_unique<System>(
                c, std::make_unique<FileTrace>(trace_path));
        }
        const SimResult r = system->run();
        if (dump_stats) {
            std::ostringstream os;
            system->dumpStats(os);
            stats_text = os.str();
        }
        if (!json_path.empty())
            stats_json = toJson(system->stats());
        return r;
    };
    SweepRunner runner(std::move(ropt));
    runner.add(cfg.benchmark + "/" + schemeName(cfg.l2.scheme), cfg);
    const SweepEntry &entry = runner.run().front();

    if (!json_path.empty()) {
        Json doc = Json::object();
        doc.set("config", toJson(cfg));
        doc.set("ok", entry.ok);
        if (!entry.ok)
            doc.set("error", entry.error);
        doc.set("result", toJson(entry.result));
        doc.set("stats", stats_json);
        std::ofstream os(json_path);
        if (!os)
            cmt_fatal("cannot write %s", json_path.c_str());
        doc.write(os, 2);
    }

    if (!entry.ok) {
        std::cerr << "error: " << entry.error << "\n";
        return 1;
    }

    const SimResult &r = entry.result;
    std::cout << "\nbenchmark            : " << r.benchmark << " ("
              << schemeName(r.scheme) << ")\n"
              << "instructions         : " << r.instructions << "\n"
              << "cycles               : " << r.cycles << "\n"
              << "IPC                  : " << r.ipc << "\n"
              << "L2 data miss-rate    : " << r.l2DataMissRate << "\n"
              << "extra reads per miss : " << r.extraReadsPerMiss << "\n"
              << "DRAM bytes/cycle     : " << r.bandwidthBytesPerCycle
              << "\n"
              << "branch mispredicts   : " << r.branchMispredictRate
              << "\n"
              << "buffer stalls        : " << r.bufferStalls << "\n"
              << "integrity failures   : " << r.integrityFailures
              << "\n";
    if (dump_stats) {
        std::cout << "\n--- full statistics ---\n";
        std::cout << stats_text;
    }
    return 0;
}
