/**
 * @file
 * cmt_analyze engine: walk the tree once, reading and lexing each
 * file once; run the per-file rules on every file and the
 * whole-program passes on the symbol index.
 */

#ifndef CMT_TOOLS_ANALYZE_ANALYSIS_H
#define CMT_TOOLS_ANALYZE_ANALYSIS_H

#include "analyze/passes.h"

#include <string>
#include <vector>

namespace cmt::analyze
{

struct AnalyzeOptions
{
    /** Repo root; paths report relative to it. */
    std::string root = ".";
    /** Files/directories to check; every file is also indexed.
     *  Empty: src/ bench/ tools/ tests/ examples/ under the root,
     *  of which src/ tools/ bench/ form the symbol index. */
    std::vector<std::string> paths;
    /** Subset of ruleNames() to run; empty runs all. */
    std::vector<std::string> rules;
};

struct AnalyzeReport
{
    /** Sorted findings; rule == "io" marks unreadable inputs. */
    std::vector<Diagnostic> diagnostics;
    std::size_t filesChecked = 0;
};

AnalyzeReport analyzeTree(const AnalyzeOptions &options);

} // namespace cmt::analyze

#endif // CMT_TOOLS_ANALYZE_ANALYSIS_H
