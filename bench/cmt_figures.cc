/**
 * @file
 * cmt_figures: reproduce the paper's figures and tables, and the
 * repository's ablations and extensions, in one sweep.
 *
 *   cmt_figures [--jobs N] [--filter S] --out DIR [FIGURE...]
 *
 * Every selected figure (all of them when none is named) enqueues its
 * runs on one SweepRunner, so a configuration that several figures
 * simulate runs once. Each figure then reads its own rows back and
 * writes DIR/<figure>.txt, its tables, and DIR/<figure>.json, its rows
 * (label, status, config and result; nothing about how the sweep ran).
 * A figure that runs no simulation (tab_logic_overhead) writes only
 * its table. Both files are a pure function of the figure, the filter
 * and REPRO_SCALE, so `diff -r` against a committed copy is the whole
 * regression check (scripts/update_baselines.sh).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/parse.h"

using namespace cmt;
using namespace cmt::bench;

namespace
{

constexpr const char *kProg = "cmt_figures";

struct Figure
{
    const char *name;
    Renderer (*build)(Sweep &, const Options &);
};

/** Every figure, in the order they are enqueued and written. */
const Figure kFigures[] = {
    {"fig3_ipc_schemes", fig3IpcSchemes},
    {"fig4_cache_contention", fig4CacheContention},
    {"fig5_bandwidth", fig5Bandwidth},
    {"fig6_hash_throughput", fig6HashThroughput},
    {"fig7_buffer_size", fig7BufferSize},
    {"fig8_chunk_schemes", fig8ChunkSchemes},
    {"tab_logic_overhead", tabLogicOverhead},
    {"abl_speculation", ablSpeculation},
    {"abl_writealloc", ablWritealloc},
    {"abl_arity", ablArity},
    {"ext_privacy", extPrivacy},
    {"ext_smp", extSmp},
    {"ext_shards", extShards},
};

[[noreturn]] void
help()
{
    std::printf("usage: %s [--jobs N] [--filter S] --out DIR [FIGURE...]\n"
                "  --jobs N    worker threads (default: all cores)\n"
                "  --filter S  only benchmarks whose name contains S\n"
                "  --out DIR   write DIR/<figure>.txt and .json\n"
                "REPRO_SCALE scales the simulation windows (e.g. 0.05 "
                "for a smoke run).\nFigures (default: all):\n",
                kProg);
    for (const Figure &f : kFigures)
        std::printf("  %s\n", f.name);
    std::exit(0);
}

/** One figure's rows of the sweep as a JSON document. */
void
writeJson(const std::string &path, const char *figure,
          const SweepRunner &runner, std::size_t first, std::size_t last)
{
    Json doc = Json::object();
    doc.set("figure", figure);
    doc.set("repro_scale", reproScale());
    Json runs = Json::array();
    for (std::size_t i = first; i < last; ++i)
        runs.push(toJson(runner.job(i), runner.entry(i)));
    doc.set("runs", std::move(runs));

    std::ofstream os(path);
    if (!os)
        cmt_fatal("cannot write %s", path.c_str());
    doc.write(os, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(kProg, "missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--jobs")
            opt.jobs = parseFlag<unsigned>(kProg, arg, value(), 0, kMaxCount);
        else if (arg == "--filter")
            opt.filter = value();
        else if (arg == "--out")
            opt.outDir = value();
        else if (arg == "--help" || arg == "-h")
            help();
        else if (arg.rfind('-', 0) == 0)
            usageError(kProg, "unknown option '%s' (try --help)",
                       arg.c_str());
        else
            names.push_back(arg);
    }
    if (opt.outDir.empty())
        usageError(kProg, "--out DIR is required");
    for (const std::string &name : names) {
        if (std::none_of(std::begin(kFigures), std::end(kFigures),
                         [&](const Figure &f) { return name == f.name; }))
            usageError(kProg, "unknown figure '%s' (try --help)",
                       name.c_str());
    }

    // Enqueue every selected figure on one sweep; figure k owns the
    // rows [first, last) it added.
    struct Selected
    {
        const Figure *figure;
        Renderer render;
        std::size_t first, last;
    };
    std::vector<Selected> selected;
    Sweep sweep(opt.jobs);
    for (const Figure &f : kFigures) {
        if (!names.empty() &&
            std::find(names.begin(), names.end(), f.name) == names.end())
            continue;
        const std::size_t first = sweep.size();
        Renderer render = f.build(sweep, opt);
        selected.push_back({&f, std::move(render), first, sweep.size()});
    }
    sweep.run();

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec)
        cmt_fatal("cannot create %s: %s", opt.outDir.c_str(),
                  ec.message().c_str());
    for (const Selected &s : selected) {
        const std::string base = opt.outDir + "/" + s.figure->name;
        std::ofstream txt(base + ".txt");
        if (!txt)
            cmt_fatal("cannot write %s.txt", base.c_str());
        Rows rows{sweep.runner(), s.first, s.last};
        s.render(txt, rows);
        cmt_assert(rows.next == s.last);
        if (s.last > s.first)
            writeJson(base + ".json", s.figure->name, sweep.runner(),
                      s.first, s.last);
    }
    return 0;
}
