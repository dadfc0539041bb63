/**
 * @file
 * Cross-translation-unit symbol index for cmt_analyze.
 *
 * Each source file parses independently into a FileSummary: its
 * includes, the symbols it declares, the identifiers it uses, and
 * one FunctionInfo per function *definition*. A function
 * carries a flattened event tree (reads of untrusted memory, verify
 * calls, ordinary calls, returns/throws, and branch/loop brackets)
 * that the rule passes interpret without ever touching tokens again.
 * The whole-program passes then stitch summaries together: call
 * edges resolve by name across files, and the include graph closes
 * transitively.
 *
 * The parser is a recognizer, not a compiler: it runs on the shared
 * token stream (analyze/tokenizer.h), tracks namespace/class/function
 * scope by brace matching, and degrades conservatively on constructs
 * it does not model (emitting fewer events, never crashing). That is
 * the right trade for CI linting of our own codebase — the fixtures
 * under tests/tools/fixtures/analyze/ pin exactly what it recognizes.
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

/** One step in a function's flattened control/data event tree. */
struct Event
{
    enum class Kind
    {
        kRead,       ///< direct read of untrusted bytes (ChunkStore)
        kVerify,     ///< call literally named `verify`
        kCall,       ///< any other call; name/qualifier identify it
        kReturn,     ///< return statement (data may leave here)
        kThrow,      ///< throw statement (path terminates)
        kIfBegin,    ///< then-branch opens (condition events precede)
        kElseBegin,  ///< else-branch opens
        kIfEnd,      ///< branches merge
        kMaybeBegin, ///< 0-or-more region: loop / switch / lambda /
                     ///< catch body
        kMaybeEnd,   ///< 0-or-more region closes
    };

    Kind kind = Kind::kCall;
    std::string name;      ///< callee
    std::string qualifier; ///< receiver before . / -> / :: (one hop)
    int line = 0;
};

/** One function *definition* with its interpreted body. */
struct FunctionInfo
{
    std::string name;      ///< unqualified (trailing id of the chain)
    std::string className; ///< enclosing class or `A::` qualifier
    int nameLine = 0;      ///< line of the declarator name
    int bodyOpenLine = 0;  ///< line of the `{`
    int endLine = 0;       ///< line of the matching `}`
    /** Declared return type is `void`, or absent (ctor/dtor). */
    bool returnsVoid = true;
    /** Takes a mutable std::span<std::uint8_t> — data can leave
     *  through an out-parameter even when returnsVoid. */
    bool hasMutableSpanParam = false;
    std::vector<Event> events;
};

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

    std::vector<FunctionInfo> functions;

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
 *  yield fewer events. */
FileSummary summarizeSource(const std::string &path,
                            const std::vector<Token> &tokens);

/** True when @p rule is allowed at @p line in @p file (directive on
 *  the same line, or on a directive-only line immediately above). */
bool allowedAt(const FileSummary &file, const std::string &rule,
               int line);

} // namespace cmt::analyze

#endif // CMT_TOOLS_ANALYZE_INDEX_H
