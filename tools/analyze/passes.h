/**
 * @file
 * The rules of cmt_analyze: eight per-file rules and one
 * whole-program pass. See DESIGN.md §10 for the architecture and the
 * rule semantics, and tests/tools/fixtures/ for the pinned behavior.
 *
 * The per-file rules (file_rules.cc) are line regexes over one
 * file's scrubbed text, scoped by path: nondeterminism,
 * stdout-discipline, naked-new, header-guard, catch-all,
 * root-registers, seed-nondeterminism and hot-path-alloc.
 *
 * The whole-program pass, include-hygiene, consumes the per-file
 * summaries (analyze/index.h) of src/ tools/ bench/ and never
 * re-reads source: it flags unused quoted includes, and symbols
 * reached only through transitive includes.
 *
 * Three properties have no pass because an exact check holds them.
 * Bytes read from untrusted RAM are typed: ChunkStore's reads return
 * Untrusted<T> (tree/untrusted.h), and using one without its check
 * does not compile (the untrusted_unwrap ctest pins it). A dropped
 * verify or persistence verdict does not compile either: the
 * verdicts are [[nodiscard]] and the build passes
 * -Werror=unused-result (the nodiscard_verdicts ctest pins it). Lock
 * order is TSan's lock-order-inversion detector's: cmt_served's loop
 * thread owns each store outright, so no code path holds two
 * cmt::Mutex at once.
 *
 * Suppression: `// cmt-analyze: allow(<rule>)` on the offending line
 * or the line above. A directive naming no known rule is itself a
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

/** Stable list of the nine rule names, the `--rule` and allow()
 *  vocabulary: the per-file rules, then the whole-program pass. */
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
includeHygienePass(const std::vector<FileSummary> &files);

/** Sort by file, then line, then rule. */
void sortDiagnostics(std::vector<Diagnostic> &diags);

/** Run the whole-program pass if @p rules names it (or is empty)
 *  and sort by file/line/rule. */
std::vector<Diagnostic>
runPasses(const std::vector<FileSummary> &files,
          const std::vector<std::string> &rules);

} // namespace cmt::analyze

#endif // CMT_TOOLS_ANALYZE_PASSES_H
