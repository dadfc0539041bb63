/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: default
 * simulation windows, REPRO_SCALE handling, the common CLI flags
 * (--jobs/--json/--filter), and the Sweep front end to SweepRunner
 * that gives every figure parallel execution, in-sweep memoization
 * and machine-readable output.
 *
 * Port pattern: a harness enqueues every run first (Sweep::add, in
 * the exact loop order it will consume them), executes the sweep
 * once (Sweep::run), then rebuilds its tables reading results back
 * in the same order (Sweep::take). Results come back in submission
 * order whatever the worker count, so --jobs N output is
 * bit-identical to --jobs 1.
 */

#ifndef CMT_BENCH_COMMON_H
#define CMT_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/json.h"
#include "support/parse.h"
#include "support/table.h"
#include "trace/specgen.h"
#include "tree/scheme.h"

namespace cmt::bench
{

/** Default measured window; REPRO_SCALE multiplies both windows. */
constexpr std::uint64_t kWarmup = 400'000;
constexpr std::uint64_t kMeasure = 1'000'000;

/** Harness-wide options from the shared command line flags. */
struct Options
{
    /** Binary name, recorded in the JSON header. */
    std::string figure;
    /** Worker threads (--jobs); 0 = hardware_concurrency. */
    unsigned jobs = 0;
    /** When non-empty, write the sweep as JSON here (--json). */
    std::string jsonPath;
    /** Substring filter over benchmark names (--filter). */
    std::string filter;
    /**
     * Progress style (--progress): "lines" prints one complete line
     * per finished run (the default, atomic under concurrency);
     * "ticker" rewrites a single stderr line in place. Both write to
     * stderr only, so stdout stays byte-identical either way.
     */
    std::string progress = "lines";
};

/** Parse the shared flags; exits on --help or unknown arguments. */
inline Options
parseArgs(int argc, char **argv, const char *figure)
{
    Options opt;
    opt.figure = figure;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cmt_fatal("%s: missing value for %s", figure,
                          arg.c_str());
            return argv[++i];
        };
        if (arg == "--jobs") {
            opt.jobs =
                parseFlag<unsigned>(figure, arg, value(), 0, kMaxCount);
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--filter") {
            opt.filter = value();
        } else if (arg == "--progress" ||
                   arg.rfind("--progress=", 0) == 0) {
            opt.progress = arg == "--progress"
                               ? value()
                               : arg.substr(std::string("--progress=")
                                                .size());
            if (opt.progress != "lines" && opt.progress != "ticker")
                cmt_fatal("%s: --progress expects 'lines' or 'ticker',"
                          " got '%s'",
                          figure, opt.progress.c_str());
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--jobs N] [--json PATH] "
                        "[--filter BENCH] [--progress MODE]\n"
                        "  --jobs N      worker threads (default: all "
                        "cores)\n"
                        "  --json PATH   also write results as JSON\n"
                        "  --filter S    only benchmarks whose name "
                        "contains S\n"
                        "  --progress M  stderr progress style: lines "
                        "(default) or ticker\n"
                        "REPRO_SCALE scales the simulation windows "
                        "(e.g. 0.05 for a smoke run).\n",
                        figure);
            std::exit(0);
        } else {
            cmt_fatal("%s: unknown argument '%s' (try --help)", figure,
                      arg.c_str());
        }
    }
    return opt;
}

/** The paper's nine benchmarks, narrowed by --filter. */
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
        cmt_fatal("--filter '%s' matches none of the nine benchmarks",
                  opt.filter.c_str());
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
 * The harness-side view of one sweep: enqueue, run, then read the
 * results back in submission order.
 */
class Sweep
{
  public:
    explicit Sweep(const Options &opt) : opt_(opt)
    {
        SweepRunner::Options ropt;
        ropt.jobs = opt.jobs;
        if (opt_.progress == "ticker") {
            // Opt-in single-line ticker: rewrite one stderr line in
            // place, ending it with a newline on the final run. A run
            // that errored still gets its own permanent line so the
            // failure is not overwritten by the next completion.
            ropt.progress = [](const SweepEntry &e, std::size_t done,
                               std::size_t total) {
                char line[256];
                if (!e.ok) {
                    std::snprintf(line, sizeof line,
                                  "\r  [%3zu/%3zu] %-28s ERROR: %s\n",
                                  done, total, e.label.c_str(),
                                  e.error.c_str());
                } else {
                    std::snprintf(line, sizeof line,
                                  "\r  [%3zu/%3zu] %-28s ipc=%.3f%s",
                                  done, total, e.label.c_str(),
                                  e.result.ipc,
                                  done == total ? "\n" : "");
                }
                std::fputs(line, stderr);
                std::fflush(stderr);
            };
        } else {
            // One complete line per finished run: atomic under
            // concurrency, and each line names its run so interleaved
            // completions stay readable.
            ropt.progress = [](const SweepEntry &e, std::size_t done,
                               std::size_t total) {
                char line[256];
                if (!e.ok) {
                    std::snprintf(line, sizeof line,
                                  "  [%3zu/%3zu] %-28s ERROR: %s\n",
                                  done, total, e.label.c_str(),
                                  e.error.c_str());
                } else if (e.memoized) {
                    std::snprintf(line, sizeof line,
                                  "  [%3zu/%3zu] %-28s ipc=%.3f (cached)\n",
                                  done, total, e.label.c_str(),
                                  e.result.ipc);
                } else {
                    std::snprintf(line, sizeof line,
                                  "  [%3zu/%3zu] %-28s ipc=%.3f\n",
                                  done, total, e.label.c_str(),
                                  e.result.ipc);
                }
                std::fputs(line, stderr);
            };
        }
        runner_ = std::make_unique<SweepRunner>(std::move(ropt));
    }

    /** Enqueue one run; consume its result with take() later. */
    void
    add(const std::string &label, const SystemConfig &cfg)
    {
        runner_->add(label, cfg);
    }

    /** Enqueue a run with a custom executor (SMP mixes); such runs
     *  always execute, never memoize. */
    void
    add(const std::string &label, const SystemConfig &cfg,
        std::function<SimResult(const SystemConfig &)> fn)
    {
        SweepJob job;
        job.label = label;
        job.config = cfg;
        job.simulate = std::move(fn);
        runner_->add(std::move(job));
    }

    /** Execute everything; prints the sweep summary line to stdout. */
    void
    run()
    {
        // Worker count stays off stdout so --jobs N output is
        // bit-identical to --jobs 1.
        const std::size_t unique = runner_->uniqueJobs();
        std::cout << "sweep: " << runner_->jobCount() << " runs ("
                  << unique << " unique)\n";
        std::cout.flush();
        std::fprintf(stderr, "  [sweep] %zu runs, %zu unique, jobs=%u\n",
                     runner_->jobCount(), unique,
                     runner_->effectiveJobs());
        runner_->run();
    }

    /** Index takeEntry() will consume next (for job metadata). */
    std::size_t cursor() const { return next_; }

    /** Next entry in submission order. */
    const SweepEntry &
    takeEntry()
    {
        return runner_->entry(next_++);
    }

    /** Next result in submission order (zeroed metrics on error). */
    const SimResult &
    take()
    {
        return takeEntry().result;
    }

    /** Write the whole sweep as JSON when --json was given. */
    void
    writeJson() const
    {
        if (opt_.jsonPath.empty())
            return;
        Json doc = Json::object();
        doc.set("figure", opt_.figure);
        doc.set("repro_scale", reproScale());
        doc.set("jobs", runner_->effectiveJobs());
        Json runs = Json::array();
        for (std::size_t i = 0; i < runner_->jobCount(); ++i)
            runs.push(toJson(runner_->job(i), runner_->entry(i)));
        doc.set("runs", std::move(runs));

        std::ofstream os(opt_.jsonPath);
        if (!os)
            cmt_fatal("cannot write %s", opt_.jsonPath.c_str());
        doc.write(os, 2);
        std::fprintf(stderr, "  [json] wrote %zu runs to %s\n",
                     runner_->jobCount(), opt_.jsonPath.c_str());
    }

    const SweepRunner &runner() const { return *runner_; }

  private:
    Options opt_;
    std::unique_ptr<SweepRunner> runner_;
    std::size_t next_ = 0;
};

/** Emit the standard harness header. */
inline void
header(const char *figure, const char *what, const SystemConfig &cfg)
{
    std::cout << "=============================================="
                 "==========================\n"
              << figure << ": " << what << "\n"
              << "Caches and Hash Trees for Efficient Memory Integrity "
                 "Verification (HPCA'03)\n"
              << "==============================================";
    std::cout << "==========================\n";
    printConfigTable(std::cout, cfg);
    std::cout << "\n";
}

/**
 * Enqueue one multiprogrammed-SMP mix: core i of @p machine runs
 * @p mix[i] (mixTraces()). The row's config is @p machine with
 * `benchmark` naming the mix ("twolf+gzip"); its result carries the
 * machine's aggregate IPC, cycles, integrity failures, DRAM bandwidth
 * and the per-core IPCs, with `benchmark` "mix" and `instructions` 0.
 * With @p verify_bandwidth it also reports hash-unit bytes per cycle
 * for single-tree runs, which SimResult otherwise leaves at zero.
 */
inline void
addSmpRow(Sweep &sweep, const std::string &label, SystemConfig machine,
          const std::vector<std::string> &mix, bool verify_bandwidth)
{
    machine.benchmark.clear();
    for (const std::string &b : mix)
        machine.benchmark += (machine.benchmark.empty() ? "" : "+") + b;
    sweep.add(label, machine,
              [mix, verify_bandwidth](const SystemConfig &cfg) {
                  System system(cfg, mixTraces(cfg, mix));
                  const SimResult run = system.run();
                  SimResult r;
                  r.benchmark = "mix";
                  r.scheme = run.scheme;
                  r.ipc = run.ipc;
                  r.cycles = run.cycles;
                  r.integrityFailures = run.integrityFailures;
                  r.bandwidthBytesPerCycle = run.bandwidthBytesPerCycle;
                  r.verifyBytesPerCycle = run.verifyBytesPerCycle;
                  if (verify_bandwidth)
                      r.verifyBytesPerCycle =
                          static_cast<double>(
                              system.hasher().stat_bytes.value()) /
                          static_cast<double>(run.cycles);
                  // run() zeroed every counter at the measured
                  // window's start, so a core's commit count is its
                  // measured instructions.
                  for (unsigned i = 0; i < mix.size(); ++i)
                      r.perCoreIpc.push_back(
                          static_cast<double>(system.core(i).committed()) /
                          run.cycles);
                  return r;
              });
}

} // namespace cmt::bench

#endif // CMT_BENCH_COMMON_H
