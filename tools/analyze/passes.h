/**
 * @file
 * The rules of cmt_analyze: eight per-file rules and two
 * whole-program passes. See DESIGN.md §10 for the architecture and
 * the rule semantics, and tests/tools/fixtures/ for the pinned
 * behavior.
 *
 * The per-file rules (file_rules.cc) are line regexes over one
 * file's scrubbed text, scoped by path: nondeterminism,
 * stdout-discipline, naked-new, header-guard, catch-all,
 * root-registers, seed-nondeterminism and hot-path-alloc.
 *
 * The whole-program passes consume the per-file summaries
 * (analyze/index.h) of src/ tools/ bench/ and never re-read source:
 *
 *  - trust-boundary: a function in src/tree/ or src/verify/ that
 *    reads untrusted ChunkStore bytes must reach a verify call on
 *    every path before data can leave (return value or mutable byte
 *    span). The paper's verify-before-use invariant as a taint rule.
 *  - include-hygiene: unused quoted includes, and symbols reached
 *    only through transitive includes.
 *
 * Two properties have no pass because an exact check holds them. A
 * dropped verify or persistence verdict does not compile: the
 * verdicts are [[nodiscard]] and the build passes
 * -Werror=unused-result (the nodiscard_verdicts ctest pins it). Lock
 * order is TSan's lock-order-inversion detector's: cmt_served's loop
 * thread owns each store outright, so no code path holds two
 * cmt::Mutex at once.
 *
 * Suppression: `// cmt-analyze: allow(<rule>)` on the offending line
 * or the line above; for the function-scoped trust-boundary rule the
 * directive may sit anywhere from just above the declarator to the
 * opening brace. A directive naming no known rule is itself a
 * `bad-directive` finding.
 */

#ifndef CMT_TOOLS_ANALYZE_PASSES_H
#define CMT_TOOLS_ANALYZE_PASSES_H

#include "analyze/index.h"

#include <string>
#include <vector>

namespace cmt::analyze
{

struct Diagnostic
{
    std::string file;
    int line = 0;
    std::string rule; ///< rule name, "bad-directive", or "io"
    std::string message;
};

/** Stable list of the ten rule names, the `--rule` and allow()
 *  vocabulary: the per-file rules, then the whole-program passes. */
const std::vector<std::string> &ruleNames();

/**
 * Run the per-file rules in @p rules (all when empty) over one file,
 * plus the bad-directive check. @p scrubbed is scrubSource() of the
 * file; suppressions come from @p file's directives, and its path
 * (repo-relative) decides which rules apply.
 */
std::vector<Diagnostic>
fileRulePass(const FileSummary &file, const std::string &scrubbed,
             const std::vector<std::string> &rules);

std::vector<Diagnostic>
trustBoundaryPass(const std::vector<FileSummary> &files);
std::vector<Diagnostic>
includeHygienePass(const std::vector<FileSummary> &files);

/** Sort by file, then line, then rule. */
void sortDiagnostics(std::vector<Diagnostic> &diags);

/** Run the whole-program passes in @p rules (all when empty) and
 *  sort by file/line/rule. */
std::vector<Diagnostic>
runPasses(const std::vector<FileSummary> &files,
          const std::vector<std::string> &rules);

} // namespace cmt::analyze

#endif // CMT_TOOLS_ANALYZE_PASSES_H
