/**
 * @file
 * Shared plumbing for the figures in cmt_figures: default simulation
 * windows, REPRO_SCALE handling, the command line options, and the
 * Sweep front end to SweepRunner that gives every figure parallel
 * execution and memoization across all the selected figures.
 *
 * Each figure is a build function: it enqueues every run on the
 * shared Sweep (Sweep::add, in the exact loop order it will consume
 * them) and returns its Renderer, a closure over its loop state. Once
 * the sweep has run, the renderer writes the figure's tables, reading
 * its own rows back in the same order (Rows::take). Results come back
 * in submission order whatever the worker count, so --jobs N output
 * is bit-identical to --jobs 1.
 */

#ifndef CMT_BENCH_COMMON_H
#define CMT_BENCH_COMMON_H

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/logging.h"
#include "support/parse.h"
#include "support/table.h"
#include "trace/specgen.h"
#include "tree/scheme.h"

namespace cmt::bench
{

/** Default measured window; REPRO_SCALE multiplies both windows. */
constexpr std::uint64_t kWarmup = 400'000;
constexpr std::uint64_t kMeasure = 1'000'000;

/** cmt_figures' command line options. */
struct Options
{
    /** Worker threads (--jobs); 0 = hardware_concurrency. */
    unsigned jobs = 0;
    /** Substring filter over benchmark names (--filter). */
    std::string filter;
    /** Directory that receives <figure>.txt and .json (--out). */
    std::string outDir;
};

/**
 * The paper's nine benchmarks, narrowed by --filter; a filter that
 * leaves none is a usage error.
 */
inline std::vector<std::string>
benchmarks(const Options &opt)
{
    std::vector<std::string> out;
    for (const auto &name : specBenchmarks()) {
        if (opt.filter.empty() ||
            name.find(opt.filter) != std::string::npos)
            out.push_back(name);
    }
    if (out.empty())
        usageError("cmt_figures",
                   "--filter '%s' matches none of the nine benchmarks",
                   opt.filter.c_str());
    return out;
}

/** The programs of one multiprogrammed-SMP run, one per core. */
using Mix = std::vector<std::string>;

/** The benchmark that runs @p mix, one core per program: "twolf+gzip". */
inline std::string
mixName(const Mix &mix)
{
    std::string name;
    for (const std::string &b : mix)
        name += (name.empty() ? "" : "+") + b;
    return name;
}

/**
 * The SMP mixes of @p figure that --filter keeps: a mix stays when any
 * of its programs matches. A filter that leaves none is a usage error.
 */
inline std::vector<Mix>
filterMixes(const Options &opt, const char *figure,
            const std::vector<Mix> &all)
{
    std::vector<Mix> out;
    for (const Mix &mix : all) {
        bool match = opt.filter.empty();
        for (const std::string &b : mix)
            match = match || b.find(opt.filter) != std::string::npos;
        if (match)
            out.push_back(mix);
    }
    if (out.empty())
        usageError("cmt_figures", "%s: --filter '%s' matches no mix",
                   figure, opt.filter.c_str());
    return out;
}

/** A config with the harness-standard windows applied. */
inline SystemConfig
baseConfig(const std::string &benchmark, Scheme scheme)
{
    SystemConfig cfg;
    cfg.benchmark = benchmark;
    cfg.warmupInstructions = kWarmup;
    cfg.measureInstructions = kMeasure;
    cfg.l2.scheme = scheme;
    cfg.scale(reproScale());
    return cfg;
}

/**
 * The figures' view of one sweep: every figure enqueues its runs,
 * then the whole sweep runs once.
 */
class Sweep
{
  public:
    explicit Sweep(unsigned jobs) : runner_(runnerOptions(jobs)) {}

    /** Enqueue one run; its figure reads the result with Rows::take(). */
    void
    add(const std::string &label, const SystemConfig &cfg)
    {
        runner_.add(label, cfg);
    }

    /** Runs enqueued so far. */
    std::size_t size() const { return runner_.jobCount(); }

    /** Execute everything; prints the sweep summary line to stderr. */
    void
    run()
    {
        // The summary stays off the tables so they are the same
        // whatever the worker count or the memoized share.
        std::fprintf(stderr, "  [sweep] %zu runs, %zu unique, jobs=%u\n",
                     runner_.jobCount(), runner_.uniqueJobs(),
                     runner_.effectiveJobs());
        runner_.run();
    }

    const SweepRunner &runner() const { return runner_; }

  private:
    static SweepRunner::Options
    runnerOptions(unsigned jobs)
    {
        SweepRunner::Options ropt;
        ropt.jobs = jobs;
        // One complete line per finished run: atomic under
        // concurrency, and each line names its run so interleaved
        // completions stay readable.
        ropt.progress = [](const SweepEntry &e, std::size_t done,
                           std::size_t total) {
            char line[256];
            if (!e.ok) {
                std::snprintf(line, sizeof line,
                              "  [%3zu/%3zu] %-28s ERROR: %s\n", done,
                              total, e.label.c_str(), e.error.c_str());
            } else if (e.memoized) {
                std::snprintf(line, sizeof line,
                              "  [%3zu/%3zu] %-28s ipc=%.3f (cached)\n",
                              done, total, e.label.c_str(), e.result.ipc);
            } else {
                std::snprintf(line, sizeof line,
                              "  [%3zu/%3zu] %-28s ipc=%.3f\n", done,
                              total, e.label.c_str(), e.result.ipc);
            }
            std::fputs(line, stderr);
        };
        return ropt;
    }

    SweepRunner runner_;
};

/** One figure's rows [next, last) of a finished sweep, taken in
 *  submission order. */
struct Rows
{
    const SweepRunner &runner;
    std::size_t next;
    std::size_t last;

    /** Next result (zeroed metrics on error). */
    const SimResult &
    take()
    {
        cmt_assert(next < last);
        return runner.entry(next++).result;
    }
};

/** Writes one figure's tables from its rows of the finished sweep. */
using Renderer = std::function<void(std::ostream &, Rows &)>;

/** Emit the standard figure header. */
inline void
header(std::ostream &os, const char *figure, const char *what,
       const SystemConfig &cfg)
{
    os << "=============================================="
          "==========================\n"
       << figure << ": " << what << "\n"
       << "Caches and Hash Trees for Efficient Memory Integrity "
          "Verification (HPCA'03)\n"
       << "=============================================="
          "==========================\n";
    printConfigTable(os, cfg);
    os << "\n";
}

// The figures, one build function each (bench/<figure>.cc).
Renderer fig3IpcSchemes(Sweep &sweep, const Options &opt);
Renderer fig4CacheContention(Sweep &sweep, const Options &opt);
Renderer fig5Bandwidth(Sweep &sweep, const Options &opt);
Renderer fig6HashThroughput(Sweep &sweep, const Options &opt);
Renderer fig7BufferSize(Sweep &sweep, const Options &opt);
Renderer fig8ChunkSchemes(Sweep &sweep, const Options &opt);
Renderer tabLogicOverhead(Sweep &sweep, const Options &opt);
Renderer ablSpeculation(Sweep &sweep, const Options &opt);
Renderer ablWritealloc(Sweep &sweep, const Options &opt);
Renderer ablArity(Sweep &sweep, const Options &opt);
Renderer extPrivacy(Sweep &sweep, const Options &opt);
Renderer extSmp(Sweep &sweep, const Options &opt);
Renderer extShards(Sweep &sweep, const Options &opt);

} // namespace cmt::bench

#endif // CMT_BENCH_COMMON_H
