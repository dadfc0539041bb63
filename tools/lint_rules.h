/**
 * @file
 * Repo-specific lint rules behind the cmt_lint binary.
 *
 * These encode CMT invariants that generic tooling cannot know:
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
 * Suppression: append `// cmt-lint: allow(<rule>)` to the offending
 * line, or put it alone on the line directly above.
 *
 * The scanner is textual (comments and string/char literals are
 * stripped first), deliberately dependency-free: no libclang in the
 * build, so the lint job costs one small C++ binary.
 */

#ifndef CMT_TOOLS_LINT_RULES_H
#define CMT_TOOLS_LINT_RULES_H

#include <string>
#include <vector>

namespace cmt::lint
{

/** One finding: where, which rule, and what to do about it. */
struct Diagnostic
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

/** All rule identifiers accepted by allow() directives. */
const std::vector<std::string> &ruleNames();

/**
 * Replace comments and string/char literal contents with spaces,
 * preserving line structure, so rules never fire on prose. Handles
 * //, block comments, and R"delim(...)delim" raw strings.
 * Exposed for tests.
 */
std::string stripCommentsAndStrings(const std::string &source);

/**
 * Lint one translation unit. @p path is the repo-relative path (it
 * decides which rules apply: src/ vs src/support/ vs bench/ ...);
 * @p source is the file contents.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &source);

/**
 * Lint a file from disk. @return false (and appends a Diagnostic
 * with rule "io") when the file cannot be read.
 */
bool lintFile(const std::string &path, std::vector<Diagnostic> *out);

/**
 * Walk @p roots (files are linted directly; directories are walked
 * recursively) collecting diagnostics for every .h/.hpp/.cc/.cpp.
 * Directory walks skip fixtures, results, "build..." and dot
 * directories; explicitly named files are always linted.
 */
std::vector<Diagnostic>
lintPaths(const std::vector<std::string> &roots);

} // namespace cmt::lint

#endif // CMT_TOOLS_LINT_RULES_H
