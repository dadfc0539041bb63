/**
 * @file
 * SweepRunner: the shared experiment engine behind cmt_figures and
 * cmt_sim.
 *
 * A sweep is a list of labelled SystemConfigs. The runner executes
 * them on a worker pool, memoizes duplicate configurations by a
 * fingerprint over every config field, isolates per-run failures
 * (a panicking configuration becomes an error row instead of killing
 * the sweep), and hands results back in submission order - so a
 * parallel sweep's output is bit-identical to a serial one.
 */

#ifndef CMT_SIM_RUNNER_H
#define CMT_SIM_RUNNER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/system.h"
#include "support/json.h"
#include "support/thread_annotations.h"

namespace cmt
{

/**
 * Order-independent 64-bit digest over every SystemConfig field.
 * Used as the sweep memoization key: two configs compare equal for
 * caching purposes iff their fingerprints match, so every field that
 * can change simulation behaviour must be folded in (the unit test
 * flips each field and checks the key moves).
 */
std::uint64_t configFingerprint(const SystemConfig &config);

/** One unit of work in a sweep: the config is the whole workload. */
struct SweepJob
{
    std::string label;
    SystemConfig config;
};

/** Outcome of one job, in submission order. */
struct SweepEntry
{
    std::string label;
    SimResult result;
    /** False when the run panicked/threw; see @ref error. */
    bool ok = true;
    /** True when the result was copied from an identical config
     *  earlier in this sweep (progress reporting only; toJson()
     *  leaves it out). */
    bool memoized = false;
    std::string error;
};

/** Parallel, memoizing, failure-isolating sweep executor. */
class SweepRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 selects hardware_concurrency. */
        unsigned jobs = 0;
        /**
         * Invoked after each executed or memoized job with the entry
         * and completion counts. Called from worker threads, but the
         * runner serializes invocations under a mutex, so the
         * callback never runs concurrently with itself and needs no
         * internal locking. Null disables progress reporting.
         */
        std::function<void(const SweepEntry &, std::size_t done,
                           std::size_t total)>
            progress;
        /** Simulation function (default cmt::simulate). Tests inject
         *  counting or throwing stand-ins here. */
        std::function<SimResult(const SystemConfig &)> simulateFn;
    };

    SweepRunner() : SweepRunner(Options()) {}
    explicit SweepRunner(Options options);

    /** Enqueue a job; @return its submission index. */
    std::size_t add(std::string label, const SystemConfig &config);

    std::size_t jobCount() const { return jobs_.size(); }

    /** Worker count that run() will use. */
    unsigned effectiveJobs() const;

    /** Number of jobs that will actually execute (after memoization
     *  grouping); only meaningful before run(). */
    std::size_t uniqueJobs() const;

    /**
     * Execute every job. Safe to call once; returns entries aligned
     * with submission indices regardless of worker count.
     */
    const std::vector<SweepEntry> &run();

    const std::vector<SweepEntry> &entries() const { return entries_; }
    const SweepEntry &entry(std::size_t i) const;
    const SweepJob &job(std::size_t i) const;

  private:
    /**
     * Hand one finished entry to the user progress callback; the
     * completion counter is claimed inside the lock so callback
     * invocations observe strictly increasing `done` values.
     */
    void notifyProgress(const SweepEntry &entry,
                        std::atomic<std::size_t> &done,
                        std::size_t total) CMT_EXCLUDES(progressMu_);

    Options options_;
    std::vector<SweepJob> jobs_;
    std::vector<SweepEntry> entries_;
    bool ran_ = false;
    /** Serializes Options::progress across worker threads. */
    Mutex progressMu_;
};

/** Measured metrics as a flat JSON object. */
Json toJson(const SimResult &result);
/** Full configuration as a nested JSON object. */
Json toJson(const SystemConfig &config);
/**
 * Entry = label + status (+ error) + config + result: a pure function
 * of the job, so a memoized row equals its leader's but for the label
 * and a sweep's JSON is the same whatever the worker count.
 */
Json toJson(const SweepJob &job, const SweepEntry &entry);

} // namespace cmt

#endif // CMT_SIM_RUNNER_H
