/**
 * @file
 * Sweep regression checking: compare a freshly produced sweep JSON
 * document (the --json output of any figure harness) against a
 * committed baseline of the same figure.
 *
 * The comparison is row-oriented. Rows pair up by label (and
 * occurrence index for repeated labels); paired rows must agree
 * exactly on every deterministic field - the full result block and
 * the full config block - because the simulator is deterministic by
 * construction. Wall-clock (host_seconds) is the one nondeterministic
 * stat and is never compared; host time is measured by the perfbench
 * benchmark, not here. The "jobs" header field is an execution detail
 * (machine core count) and is never compared either.
 *
 * A non-clean report means the paper's reproduced numbers moved:
 * either a code change altered simulation behaviour (fail the build)
 * or the change was intentional (regenerate baselines with
 * scripts/update_baselines.sh and commit the diff).
 */

#ifndef CMT_SIM_REGRESS_H
#define CMT_SIM_REGRESS_H

#include <ostream>
#include <string>
#include <vector>

#include "support/json.h"

namespace cmt
{

/** Verdict for one paired (or unpaired) sweep row. */
enum class RowStatus
{
    kMatch,         ///< deterministic fields identical
    kDrift,         ///< a result/config field changed value
    kErrorMismatch, ///< ok flag flipped between baseline and current
    kMissing,       ///< row in baseline but not in current sweep
    kExtra,         ///< row in current but not in baseline sweep
};

/** Short machine-greppable status name ("match", "drift", ...). */
const char *rowStatusName(RowStatus status);

/** One differing field inside a drifted row. */
struct StatDelta
{
    std::string stat;
    /** JSON-rendered values ("-" when the side lacks the field). */
    std::string baseline;
    std::string current;
    /** current/baseline, when both sides are numeric and baseline
     *  is nonzero; see @ref hasRatio. */
    double ratio = 0;
    bool hasRatio = false;
};

/** Comparison outcome for one labelled row. */
struct RowVerdict
{
    std::string label;
    RowStatus status = RowStatus::kMatch;
    std::vector<StatDelta> deltas;
};

/** Everything compareSweeps() learned about one figure. */
struct RegressReport
{
    std::string figure;
    /**
     * Non-empty when the two documents cannot be meaningfully
     * compared (different figure, different repro_scale, malformed
     * sweep). A docError always makes the report non-clean.
     */
    std::string docError;
    std::vector<RowVerdict> rows;
    std::size_t matched = 0;
    std::size_t drifted = 0; ///< kDrift + kErrorMismatch
    std::size_t missing = 0;
    std::size_t extra = 0;

    bool
    clean() const
    {
        return docError.empty() && drifted + missing + extra == 0;
    }
};

/**
 * Compare @p current against @p baseline (both full sweep documents
 * as written by Sweep::writeJson()). Never exits or throws on bad
 * input - malformed documents surface as docError.
 */
RegressReport compareSweeps(const Json &baseline, const Json &current);

/**
 * Human-readable report: a ratio table of every non-matching row
 * (and, with @p verbose, the matched ones) plus a summary line.
 */
void printReport(std::ostream &os, const RegressReport &report,
                 bool verbose = false);

} // namespace cmt

#endif // CMT_SIM_REGRESS_H
