/**
 * @file
 * Cross-translation-unit symbol index for cmt_analyze.
 *
 * Each source file parses independently into a FileSummary: its
 * includes, the symbols it declares and the identifiers it uses.
 * The whole-program pass (include-hygiene) stitches the summaries
 * together by closing the include graph transitively.
 *
 * The parser is a recognizer, not a compiler: it runs on the shared
 * token stream (analyze/tokenizer.h), tracks namespace/class scope
 * by brace matching, records a function definition's name and skips
 * its body, and degrades conservatively on constructs it does not
 * model (declaring fewer symbols, never crashing). That is the right
 * trade for CI linting of our own codebase — the fixtures under
 * tests/tools/fixtures/analyze/ pin exactly what it recognizes.
 *
 * The summary also carries the file's `// cmt-analyze: allow(...)`
 * directives: the one suppression scanner for every rule, per-file
 * and whole-program alike.
 */

#ifndef CMT_TOOLS_ANALYZE_INDEX_H
#define CMT_TOOLS_ANALYZE_INDEX_H

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/tokenizer.h"

namespace cmt::analyze
{

/** What one header/source file declares and consumes. */
struct FileSummary
{
    std::string path; ///< repo-relative, '/'-separated

    /** Include targets in order: quoted keep their spelling, angled
     *  keep theirs; resolution to indexed files happens later. */
    std::vector<std::string> quotedIncludes;
    std::vector<std::string> angledIncludes;
    std::vector<int> quotedIncludeLines; ///< parallel to quoted

    /** Type names (class/struct/union/enum) *defined* here. */
    std::set<std::string> definedTypes;
    /** Everything declared at namespace/class scope: types, function
     *  names, enumerators, aliases, macros, namespace constants. */
    std::set<std::string> declaredSymbols;
    /** Every identifier spelled in the file -> first line of use. */
    std::map<std::string, int> usedIdentifiers;

    /** rule -> lines carrying `// cmt-analyze: allow(<rule>)`. A
     *  directive with no code before it on its line also covers the
     *  next line. */
    std::map<std::string, std::set<int>> allowLines;
    /** (line, rule) for every name spelled in an allow directive,
     *  known or not: the engine reports unknown names. */
    std::vector<std::pair<int, std::string>> directives;
};

/** Parse one file's token stream (tokenize() of its contents) into
 *  a summary. Never throws on weird input; unmodeled constructs just
 *  declare fewer symbols. */
FileSummary summarizeSource(const std::string &path,
                            const std::vector<Token> &tokens);

/** True when @p rule is allowed at @p line in @p file (directive on
 *  the same line, or on a directive-only line immediately above). */
bool allowedAt(const FileSummary &file, const std::string &rule,
               int line);

} // namespace cmt::analyze

#endif // CMT_TOOLS_ANALYZE_INDEX_H
