/**
 * @file
 * SweepRunner: the shared experiment engine behind every figure
 * harness.
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
#include <optional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/system.h"
#include "support/json.h"
#include "support/thread_annotations.h"

namespace cmt
{

struct SmpConfig;

/**
 * Order-independent 64-bit digest over every SystemConfig field.
 * Used as the sweep memoization key: two configs compare equal for
 * caching purposes iff their fingerprints match, so every field that
 * can change simulation behaviour must be folded in (the unit test
 * flips each field and checks the key moves).
 */
std::uint64_t configFingerprint(const SystemConfig &config);

/**
 * Memoization key for a multiprogrammed SMP mix. Folds every
 * SmpConfig field under a distinct domain tag, so an SmpConfig can
 * never alias a SystemConfig (or vice versa) even where the structs
 * share parameter blocks.
 */
std::uint64_t configFingerprint(const SmpConfig &config);

/**
 * Strict base-10 parse of a worker/thread count CLI value. Rejects
 * empty strings, trailing garbage, negative values, and - unlike a
 * bare strtoul, whose ERANGE result wraps into a huge but "valid"
 * number - anything outside [0, 1'000'000]. Shared by every harness
 * flag that names a thread count (--jobs, --workers, --clients).
 *
 * @return true and store the value; false leaves @p out untouched.
 */
bool parseWorkerCount(const std::string &text, unsigned *out);

/** One unit of work in a sweep. */
struct SweepJob
{
    std::string label;
    SystemConfig config;
    /**
     * Optional per-job simulation override (multiprogrammed mixes,
     * test instrumentation). Without @ref fingerprint, jobs with an
     * override are executed unconditionally - the config fingerprint
     * only describes the config, so memoizing against it would alias
     * distinct workloads.
     */
    std::function<SimResult(const SystemConfig &)> simulate;
    /**
     * Explicit memoization key for jobs whose work is not described
     * by @ref config (e.g. an SMP mix fingerprinted over its
     * SmpConfig). Supplying it opts a custom-thunk job back into
     * memoization; the caller guarantees the key covers everything
     * that can change the returned SimResult.
     */
    std::optional<std::uint64_t> fingerprint;
};

/** Outcome of one job, in submission order. */
struct SweepEntry
{
    std::string label;
    SimResult result;
    /** False when the run panicked/threw; see @ref error. */
    bool ok = true;
    /** True when the result was copied from an identical config
     *  earlier in this sweep. */
    bool memoized = false;
    std::string error;
    /** Host wall-clock seconds for the run (0 when memoized). */
    double hostSeconds = 0;
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
    std::size_t add(SweepJob job);

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
/** Entry = label + status + config + result. */
Json toJson(const SweepJob &job, const SweepEntry &entry);

} // namespace cmt

#endif // CMT_SIM_RUNNER_H
