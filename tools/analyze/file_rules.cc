/**
 * @file
 * The eight per-file rules of cmt_analyze. They encode CMT
 * invariants that generic tooling cannot know:
 *
 *  - nondeterminism : no rand()/srand()/std::random_device/time()/
 *                     clock()/system_clock/getpid() inside src/.
 *                     Simulation results must be a pure function of
 *                     the config (sweep memoization and the
 *                     byte-identical baselines depend on it); all
 *                     randomness goes through the seeded cmt::Rng.
 *  - stdout-discipline : no std::cout / bare printf()/puts() in src/
 *                     outside src/support/. Library code reports
 *                     through logging.h (line-atomic) or returns data;
 *                     only harness/tool mains own stdout.
 *  - naked-new      : no naked new/delete expressions in src/; the
 *                     simulator is RAII-only (containers,
 *                     unique_ptr). Placement new is still flagged -
 *                     allowlist it if a pool ever needs one.
 *  - header-guard   : every header carries #pragma once or an
 *                     #ifndef/#define include guard.
 *  - catch-all      : no catch (...) in src/, bench/, or tools/. A
 *                     catch-all swallows the SimError that
 *                     ScopedThrowOnError turns panics into, hiding
 *                     integrity violations instead of isolating them.
 *  - root-registers : no raw root-register storage (a roots_ member)
 *                     or direct TreeContext::roots[] indexing in src/
 *                     outside src/tree/shard_router.h. The ShardRouter
 *                     owns the per-shard root registers; everyone else
 *                     goes through rootOf() / context(), which carry
 *                     the shard routing and root-level assertions.
 *  - hot-path-alloc : no std::make_shared / std::function in
 *                     src/tree/. The policy access paths run once per
 *                     L2 miss; type-erased callbacks spill captures to
 *                     the heap and make_shared allocates outright.
 *                     Callbacks ride SmallCallback's bounded inline
 *                     storage, job state recycles through pooled
 *                     slabs. Cold-path wiring (construction-time
 *                     hooks) escapes with an allow directive.
 *  - seed-nondeterminism : no time()/getpid()/std::random_device in
 *                     tests/, bench/, or tools/ (src/ is covered by
 *                     the stricter nondeterminism rule). Wall-clock
 *                     or pid-derived RNG seeds produce fuzz traces
 *                     and corpus entries nobody can replay; cmt_fuzz
 *                     promises `--seed S` bit-reproducibility, so
 *                     seeds come from the command line or a fixed
 *                     literal.
 *
 * The rules are line regexes over the scrubbed text (comments and
 * string/char literal contents blanked), so they never fire on prose.
 */

#include "analyze/index.h"
#include "analyze/passes.h"

#include <algorithm>
#include <cctype>
#include <regex>

namespace cmt::analyze
{

namespace
{

/** True when @p path lives under directory prefix @p dir ("src/"). */
bool
inDir(const std::string &path, const std::string &dir)
{
    if (path.rfind(dir, 0) == 0)
        return true;
    return path.find("/" + dir) != std::string::npos;
}

bool
isHeaderPath(const std::string &path)
{
    return path.size() >= 2 &&
           (path.rfind(".h") == path.size() - 2 ||
            path.rfind(".hpp") == path.size() - 4);
}

/** One textual pattern belonging to a rule. */
struct Pattern
{
    const char *rule;
    /** Literal every match contains: lines without it skip the
     *  regex, which is where a whole-tree run spends its time. */
    const char *needle;
    std::regex re;
    const char *message;
};

/** Patterns applied per scrubbed line, guarded by path scope. */
const std::vector<Pattern> &
nondeterminismPatterns()
{
    static const std::vector<Pattern> patterns = {
        {"nondeterminism", "rand",
         std::regex(R"((^|[^A-Za-z0-9_])s?rand\s*\()"),
         "rand()/srand() breaks run reproducibility; draw from a "
         "seeded cmt::Rng instead"},
        {"nondeterminism", "random_device",
         std::regex(R"(random_device)"),
         "std::random_device is nondeterministic; seed a cmt::Rng "
         "from the config instead"},
        {"nondeterminism", "time",
         std::regex(R"((^|[^A-Za-z0-9_])time\s*\()"),
         "wall-clock time() in simulation code breaks memoization; "
         "derive timing from simulated cycles"},
        {"nondeterminism", "clock",
         std::regex(R"((^|[^A-Za-z0-9_])clock\s*\()"),
         "clock() in simulation code breaks memoization; derive "
         "timing from simulated cycles"},
        {"nondeterminism", "system_clock",
         std::regex(R"(system_clock)"),
         "system_clock is wall-clock; use steady_clock for host "
         "timing or simulated cycles for model timing"},
        {"nondeterminism", "gettimeofday",
         std::regex(R"(gettimeofday)"),
         "gettimeofday() is wall-clock nondeterminism; use simulated "
         "cycles"},
        {"nondeterminism", "getpid",
         std::regex(R"((^|[^A-Za-z0-9_])getpid\s*\()"),
         "getpid() varies per run; simulation results must be a pure "
         "function of the config"},
    };
    return patterns;
}

/**
 * Seed hygiene for test/bench/tool code. Outside src/ wall-clock use
 * is generally fine (harness timing, log stamps), but deriving an RNG
 * seed from time()/getpid()/std::random_device produces fuzz cases
 * and corpus entries that nobody can replay. cmt_fuzz's contract is
 * `--seed S` bit-reproducibility, so seeds must come from the command
 * line, a fixed literal, or another seeded cmt::Rng.
 */
const std::vector<Pattern> &
seedPatterns()
{
    static const std::vector<Pattern> patterns = {
        {"seed-nondeterminism", "time",
         std::regex(R"((^|[^A-Za-z0-9_])time\s*\()"),
         "time()-derived seeds make fuzz runs unreplayable; take the "
         "seed from the command line or a fixed literal"},
        {"seed-nondeterminism", "getpid",
         std::regex(R"((^|[^A-Za-z0-9_])getpid\s*\()"),
         "getpid()-derived seeds make fuzz runs unreplayable; take "
         "the seed from the command line or a fixed literal"},
        {"seed-nondeterminism", "random_device",
         std::regex(R"(random_device)"),
         "std::random_device seeds make fuzz runs unreplayable; seed "
         "a cmt::Rng explicitly instead"},
    };
    return patterns;
}

const std::vector<Pattern> &
stdoutPatterns()
{
    static const std::vector<Pattern> patterns = {
        {"stdout-discipline", "cout",
         std::regex(R"((^|[^A-Za-z0-9_])cout($|[^A-Za-z0-9_]))"),
         "library code must not own stdout; report via logging.h or "
         "return data (stdout belongs to bench/tool mains)"},
        {"stdout-discipline", "printf",
         std::regex(R"((^|[^A-Za-z0-9_])printf\s*\()"),
         "bare printf() bypasses line-atomic logging; use "
         "logging.h (or snprintf into a buffer)"},
        {"stdout-discipline", "puts",
         std::regex(R"((^|[^A-Za-z0-9_])puts\s*\()"),
         "puts() bypasses line-atomic logging; use logging.h"},
        {"stdout-discipline", "stdio",
         std::regex(R"(#\s*include\s*<\s*(cstdio|stdio\.h)\s*>)"),
         "<cstdio> outside src/support/ invites raw FILE* output; "
         "report through logging.h (warn/inform) or justify "
         "the FILE* owner with an allow directive"},
    };
    return patterns;
}

const std::vector<Pattern> &
rootRegisterPatterns()
{
    static const std::vector<Pattern> patterns = {
        {"root-registers", "roots_",
         std::regex(R"((^|[^A-Za-z0-9_])roots_($|[^A-Za-z0-9_]))"),
         "raw root-register storage outside ShardRouter; the "
         "per-shard TreeContexts own the registers - go through "
         "rootOf()/context()"},
        {"root-registers", "roots",
         std::regex(R"((\.|->)roots\s*\[)"),
         "indexing TreeContext::roots directly bypasses rootOf()'s "
         "shard routing and root-level assertion; use "
         "rootOf(chunk)"},
    };
    return patterns;
}

/**
 * Allocation hygiene for the integrity-tree hot path. Every L2 miss
 * walks a policy's access path, so a per-call heap allocation there
 * is a per-miss allocation: std::function's type erasure spills
 * captures past its small-buffer onto the heap, and make_shared is a
 * heap allocation by definition. Policy code carries callbacks in
 * SmallCallback (compile-time-bounded inline storage) and recycles
 * job state through pooled slabs; cold-path uses (wiring hooks at
 * construction, test scaffolding) justify themselves with an allow
 * directive.
 */
const std::vector<Pattern> &
hotPathAllocPatterns()
{
    static const std::vector<Pattern> patterns = {
        {"hot-path-alloc", "make_shared",
         std::regex(R"((^|[^A-Za-z0-9_])make_shared($|[^A-Za-z0-9_]))"),
         "make_shared in tree policy code allocates per call on the "
         "per-miss path; use pooled job slabs (support/arena.h) or "
         "justify the cold path with an allow directive"},
        {"hot-path-alloc", "function",
         std::regex(R"((^|[^A-Za-z0-9_])std\s*::\s*function($|[^A-Za-z0-9_]))"),
         "std::function in tree policy code heap-allocates spilled "
         "captures per call; carry callbacks in SmallCallback "
         "(support/callback.h) or justify the cold path with an "
         "allow directive"},
    };
    return patterns;
}

const std::vector<Pattern> &
catchAllPatterns()
{
    static const std::vector<Pattern> patterns = {
        {"catch-all", "catch",
         std::regex(R"(catch\s*\(\s*\.\.\.\s*\))"),
         "catch (...) swallows SimError from ScopedThrowOnError, "
         "hiding panics; catch std::exception or narrower"},
    };
    return patterns;
}

/** Word occurrences of new/delete that form expressions. */
void
checkNakedNewDelete(const FileSummary &file,
                    const std::vector<std::string> &lines,
                    std::vector<Diagnostic> *out)
{
    static const std::regex word(
        R"((^|[^A-Za-z0-9_])(new|delete)($|[^A-Za-z0-9_]))");
    for (std::size_t n = 0; n < lines.size(); ++n) {
        const std::string &line = lines[n];
        // Preprocessor directives never contain allocation
        // expressions; `#include <new>` is the obvious false match.
        const auto first = line.find_first_not_of(" \t");
        if (first != std::string::npos && line[first] == '#')
            continue;
        if (line.find("new") == std::string::npos &&
            line.find("delete") == std::string::npos)
            continue;
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            word);
             it != std::sregex_iterator(); ++it) {
            const std::smatch &m = *it;
            const std::string kw = m[2].str();
            // "= delete" is the deleted-member declaration, not a
            // delete expression (no valid expression puts '=' before
            // the delete keyword): skip it, including the wrapped
            // "... =\n    delete;" spelling. "= new ..." stays
            // flagged - that's exactly the naked allocation we ban.
            if (kw == "delete") {
                std::size_t p =
                    static_cast<std::size_t>(m.position(2));
                while (p > 0 &&
                       std::isspace(static_cast<unsigned char>(
                           line[p - 1])))
                    --p;
                char prev = p > 0 ? line[p - 1] : '\0';
                if (prev == '\0' && n > 0) {
                    const std::string &above = lines[n - 1];
                    const auto last =
                        above.find_last_not_of(" \t");
                    if (last != std::string::npos)
                        prev = above[last];
                }
                if (prev == '=')
                    continue;
            }
            if (allowedAt(file, "naked-new", static_cast<int>(n + 1)))
                continue;
            out->push_back(
                {file.path, static_cast<int>(n + 1), "naked-new",
                 "naked '" + kw +
                     "' in simulator code; own memory via "
                     "containers or std::unique_ptr"});
        }
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

} // namespace

std::vector<Diagnostic>
fileRulePass(const FileSummary &file, const std::string &scrubbed,
             const std::vector<std::string> &rules)
{
    const std::string &path = file.path;
    const bool inSrc = inDir(path, "src/");
    const bool inSupport = inDir(path, "src/support/");
    const bool inBenchOrTools =
        inDir(path, "bench/") || inDir(path, "tools/");
    const bool inTests = inDir(path, "tests/");
    // The ShardRouter is the one module allowed to touch root
    // registers directly; everyone else uses its accessors.
    const bool isShardRouter =
        path.find("tree/shard_router.") != std::string::npos;
    const auto enabled = [&](const char *rule) {
        return rules.empty() ||
               std::find(rules.begin(), rules.end(), rule) !=
                   rules.end();
    };

    std::vector<Diagnostic> diags;

    for (const auto &[line, rule] : file.directives) {
        if (std::find(ruleNames().begin(), ruleNames().end(), rule) ==
            ruleNames().end())
            diags.push_back({path, line, "bad-directive",
                             "unknown rule '" + rule +
                                 "' in cmt-analyze allow()"});
    }

    const std::vector<std::string> lines = splitLines(scrubbed);

    // header-guard: any header, whole-file property. Checked on the
    // scrubbed text - a comment that merely mentions "#pragma once"
    // is not a guard.
    if (enabled("header-guard") && isHeaderPath(path)) {
        static const std::regex ifndefRe(
            R"(#\s*ifndef\s+([A-Za-z0-9_]+))");
        bool hasGuard =
            scrubbed.find("#pragma once") != std::string::npos;
        std::smatch m;
        if (!hasGuard && std::regex_search(scrubbed, m, ifndefRe)) {
            hasGuard = scrubbed.find("#define " + m[1].str(),
                                     static_cast<std::size_t>(
                                         m.position(0))) !=
                       std::string::npos;
        }
        if (!hasGuard && !allowedAt(file, "header-guard", 1)) {
            diags.push_back(
                {path, 1, "header-guard",
                 "header lacks #pragma once or an #ifndef/#define "
                 "include guard"});
        }
    }

    const auto apply = [&](const std::vector<Pattern> &patterns) {
        if (!enabled(patterns.front().rule))
            return;
        for (std::size_t n = 0; n < lines.size(); ++n) {
            for (const Pattern &p : patterns) {
                if (lines[n].find(p.needle) == std::string::npos ||
                    !std::regex_search(lines[n], p.re))
                    continue;
                if (allowedAt(file, p.rule, static_cast<int>(n + 1)))
                    continue;
                diags.push_back({path, static_cast<int>(n + 1),
                                 p.rule, p.message});
            }
        }
    };

    if (inSrc)
        apply(nondeterminismPatterns());
    // src/ already bans every wall-clock source outright; the seed
    // rule covers the harness code the stricter rule exempts.
    if (!inSrc && (inTests || inBenchOrTools))
        apply(seedPatterns());
    if (inSrc && !inSupport)
        apply(stdoutPatterns());
    if (inSrc && enabled("naked-new"))
        checkNakedNewDelete(file, lines, &diags);
    if (inSrc || inBenchOrTools)
        apply(catchAllPatterns());
    if (inSrc && !isShardRouter)
        apply(rootRegisterPatterns());
    if (inDir(path, "src/tree/"))
        apply(hotPathAllocPatterns());
    return diags;
}

} // namespace cmt::analyze
