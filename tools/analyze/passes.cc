#include "analyze/passes.h"

#include "analyze/index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace cmt::analyze
{

namespace
{

// ------------------------------------------------------ shared bits

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

bool
pathInDir(const std::string &path, const std::string &dir)
{
    if (path.rfind(dir + "/", 0) == 0)
        return true;
    return path.find("/" + dir + "/") != std::string::npos;
}

/** Function-scoped allow: anywhere from just above the declarator
 *  (multi-line signatures put the return type on its own line) down
 *  to the opening brace. */
bool
functionAllowed(const FileSummary &file, const std::string &rule,
                const FunctionInfo &fn)
{
    auto it = file.allowLines.find(rule);
    if (it == file.allowLines.end())
        return false;
    for (int line = fn.nameLine - 3;
         line <= std::max(fn.bodyOpenLine, fn.nameLine); ++line)
        if (it->second.contains(line))
            return true;
    return false;
}

std::string
qualifiedName(const FunctionInfo &fn)
{
    return fn.className.empty() ? fn.name
                                : fn.className + "::" + fn.name;
}

/** Function identity across the whole program. */
struct FnRef
{
    std::size_t file = 0;
    std::size_t fn = 0;
    bool operator<(const FnRef &o) const
    {
        return file != o.file ? file < o.file : fn < o.fn;
    }
};

/** Name -> definitions, for call-edge resolution by unqualified
 *  name (receivers are expressions, not class names, so qualifier
 *  filtering is best-effort). */
class CallResolver
{
  public:
    explicit CallResolver(const std::vector<FileSummary> &files)
    {
        for (std::size_t f = 0; f < files.size(); ++f)
            for (std::size_t k = 0; k < files[f].functions.size();
                 ++k)
                byName_[files[f].functions[k].name].push_back(
                    {f, k});
    }

    const std::vector<FnRef> &candidates(
        const std::string &name) const
    {
        static const std::vector<FnRef> empty;
        auto it = byName_.find(name);
        return it == byName_.end() ? empty : it->second;
    }

  private:
    std::map<std::string, std::vector<FnRef>> byName_;
};

// ----------------------------------------------------- trust rule

/** Files that ARE the trust boundary (the store itself) or are
 *  explicitly unverified by design (the paper's base scheme). */
bool
trustAllowlisted(const std::string &path)
{
    const std::string base = baseName(path);
    return base == "chunk_store.h" || base == "chunk_store.cc" ||
           base == "null_policy.h" || base == "null_policy.cc";
}

/** Fixpoint: a function is "verifying" when it calls verify
 *  directly or calls (on any path) a verifying function. Calling
 *  one sanctions the data a caller holds. */
std::set<FnRef>
verifyingClosure(const std::vector<FileSummary> &files,
                 const CallResolver &resolver)
{
    std::set<FnRef> verifying;
    for (std::size_t f = 0; f < files.size(); ++f)
        for (std::size_t k = 0; k < files[f].functions.size(); ++k)
            for (const Event &e : files[f].functions[k].events)
                if (e.kind == Event::Kind::kVerify)
                    verifying.insert({f, k});
    bool grew = true;
    while (grew) {
        grew = false;
        for (std::size_t f = 0; f < files.size(); ++f) {
            for (std::size_t k = 0; k < files[f].functions.size();
                 ++k) {
                const FnRef self{f, k};
                if (verifying.contains(self))
                    continue;
                for (const Event &e :
                     files[f].functions[k].events) {
                    if (e.kind != Event::Kind::kCall)
                        continue;
                    for (const FnRef &callee :
                         resolver.candidates(e.name)) {
                        if (verifying.contains(callee)) {
                            verifying.insert(self);
                            grew = true;
                            break;
                        }
                    }
                    if (verifying.contains(self))
                        break;
                }
            }
        }
    }
    return verifying;
}

/** Path state for the event-tree interpreter. */
struct TaintState
{
    bool tainted = false;
    bool dead = false; ///< path already left via return/throw
    int readLine = 0;  ///< first unverified read on this path
};

TaintState
mergeStates(const TaintState &a, const TaintState &b)
{
    if (a.dead)
        return b;
    if (b.dead)
        return a;
    TaintState out;
    out.tainted = a.tainted || b.tainted;
    out.readLine = a.readLine != 0 ? a.readLine : b.readLine;
    return out;
}

} // namespace

std::vector<Diagnostic>
trustBoundaryPass(const std::vector<FileSummary> &files)
{
    static const std::string rule = "trust-boundary";
    const CallResolver resolver(files);
    const std::set<FnRef> verifying =
        verifyingClosure(files, resolver);
    const auto calleeVerifies = [&](const Event &e) {
        for (const FnRef &callee : resolver.candidates(e.name))
            if (verifying.contains(callee))
                return true;
        return false;
    };

    std::vector<Diagnostic> out;
    for (const FileSummary &file : files) {
        const bool inScope = pathInDir(file.path, "src/tree") ||
                             pathInDir(file.path, "src/verify");
        if (!inScope || trustAllowlisted(file.path))
            continue;
        for (const FunctionInfo &fn : file.functions) {
            const bool sink =
                !fn.returnsVoid || fn.hasMutableSpanParam;
            const bool reads = std::any_of(
                fn.events.begin(), fn.events.end(),
                [](const Event &e) {
                    return e.kind == Event::Kind::kRead;
                });
            if (!sink || !reads ||
                functionAllowed(file, rule, fn))
                continue;

            struct Frame
            {
                TaintState saved;
                TaintState thenOut;
                bool haveThen = false;
            };
            TaintState cur;
            std::vector<Frame> frames;
            std::set<int> flagged;
            const auto violate = [&](int line) {
                if (!flagged.insert(line).second)
                    return;
                if (allowedAt(file, rule, line))
                    return;
                Diagnostic d;
                d.file = file.path;
                d.line = line;
                d.rule = rule;
                d.message =
                    "'" + qualifiedName(fn) +
                    "' lets data read from untrusted RAM (line " +
                    std::to_string(cur.readLine) +
                    ") escape without a verify on every path; the "
                    "hash-tree invariant requires verify-before-use";
                out.push_back(std::move(d));
            };

            for (const Event &e : fn.events) {
                switch (e.kind) {
                case Event::Kind::kRead:
                    if (!cur.dead) {
                        cur.tainted = true;
                        if (cur.readLine == 0)
                            cur.readLine = e.line;
                    }
                    break;
                case Event::Kind::kVerify:
                    if (!cur.dead)
                        cur.tainted = false;
                    break;
                case Event::Kind::kCall:
                    if (!cur.dead && calleeVerifies(e))
                        cur.tainted = false;
                    break;
                case Event::Kind::kReturn:
                    if (!cur.dead && cur.tainted)
                        violate(e.line);
                    cur.dead = true;
                    break;
                case Event::Kind::kThrow:
                    cur.dead = true;
                    break;
                case Event::Kind::kIfBegin:
                case Event::Kind::kMaybeBegin:
                    frames.push_back({cur, {}, false});
                    break;
                case Event::Kind::kElseBegin:
                    if (!frames.empty()) {
                        frames.back().thenOut = cur;
                        frames.back().haveThen = true;
                        cur = frames.back().saved;
                    }
                    break;
                case Event::Kind::kIfEnd:
                    if (!frames.empty()) {
                        const Frame f = frames.back();
                        frames.pop_back();
                        cur = mergeStates(
                            cur, f.haveThen ? f.thenOut : f.saved);
                    }
                    break;
                case Event::Kind::kMaybeEnd:
                    if (!frames.empty()) {
                        const Frame f = frames.back();
                        frames.pop_back();
                        cur = mergeStates(cur, f.saved);
                    }
                    break;
                }
            }
            // Falling off the end only leaks through an
            // out-parameter (a non-void function must return).
            if (!cur.dead && cur.tainted && fn.hasMutableSpanParam)
                violate(fn.endLine);
        }
    }
    return out;
}

// ------------------------------------------------- include hygiene

namespace
{

/** Resolve an include spelling to an indexed file, mimicking the
 *  build's include dirs (repo root trees + includer-relative). */
std::size_t
resolveInclude(const std::string &includer, const std::string &inc,
               const std::map<std::string, std::size_t> &byPath)
{
    std::vector<std::string> candidates;
    const std::size_t slash = includer.rfind('/');
    if (slash != std::string::npos)
        candidates.push_back(includer.substr(0, slash + 1) + inc);
    for (const char *tree :
         {"src/", "tools/", "bench/", "tests/", "examples/"})
        candidates.push_back(tree + inc);
    candidates.push_back(inc);
    for (const std::string &c : candidates) {
        auto it = byPath.find(c);
        if (it != byPath.end())
            return it->second;
    }
    return byPath.size(); // sentinel: unresolved
}

} // namespace

std::vector<Diagnostic>
includeHygienePass(const std::vector<FileSummary> &files)
{
    static const std::string rule = "include-hygiene";
    std::map<std::string, std::size_t> byPath;
    for (std::size_t f = 0; f < files.size(); ++f)
        byPath.emplace(files[f].path, f);

    // Resolved direct includes per file.
    std::vector<std::vector<std::size_t>> direct(files.size());
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (const std::string &inc : files[f].quotedIncludes) {
            const std::size_t target =
                resolveInclude(files[f].path, inc, byPath);
            direct[f].push_back(target);
        }
    }

    // Type name -> unique defining file (ambiguous names drop out).
    std::map<std::string, std::size_t> uniqueHome;
    std::set<std::string> ambiguous;
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (const std::string &type : files[f].definedTypes) {
            if (ambiguous.contains(type))
                continue;
            auto [it, inserted] = uniqueHome.emplace(type, f);
            if (!inserted && it->second != f) {
                uniqueHome.erase(it);
                ambiguous.insert(type);
            }
        }
    }

    const auto selfHeaderOf = [&](std::size_t f) {
        const std::string &path = files[f].path;
        const std::size_t dot = path.rfind('.');
        if (dot == std::string::npos)
            return files.size();
        for (const char *ext : {".h", ".hpp"}) {
            auto it = byPath.find(path.substr(0, dot) + ext);
            if (it != byPath.end() && it->second != f)
                return it->second;
        }
        return files.size();
    };

    std::vector<Diagnostic> out;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const FileSummary &file = files[f];
        const std::size_t selfHeader = selfHeaderOf(f);

        // Transitive include closure (resolved quoted edges only).
        std::set<std::size_t> closure;
        std::deque<std::size_t> queue{f};
        closure.insert(f);
        while (!queue.empty()) {
            const std::size_t cur = queue.front();
            queue.pop_front();
            for (std::size_t t : direct[cur])
                if (t < files.size() && closure.insert(t).second)
                    queue.push_back(t);
        }

        // -- unused direct includes
        for (std::size_t i = 0; i < direct[f].size(); ++i) {
            const std::size_t t = direct[f][i];
            if (t >= files.size() || t == f || t == selfHeader)
                continue;
            const FileSummary &target = files[t];
            if (target.declaredSymbols.empty())
                continue; // nothing to judge by
            const int line = i < file.quotedIncludeLines.size()
                                 ? file.quotedIncludeLines[i]
                                 : 0;
            if (allowedAt(file, rule, line))
                continue;
            const bool used = std::any_of(
                target.declaredSymbols.begin(),
                target.declaredSymbols.end(),
                [&](const std::string &sym) {
                    return file.usedIdentifiers.contains(sym);
                });
            if (used)
                continue;
            Diagnostic d;
            d.file = file.path;
            d.line = line;
            d.rule = rule;
            d.message = "include \"" + file.quotedIncludes[i] +
                        "\" is unused: nothing it declares is "
                        "referenced here";
            out.push_back(std::move(d));
        }

        // -- types reached only through transitive includes
        const std::set<std::size_t> directSet(direct[f].begin(),
                                              direct[f].end());
        for (const auto &[name, firstLine] :
             file.usedIdentifiers) {
            auto home = uniqueHome.find(name);
            if (home == uniqueHome.end() || home->second == f)
                continue;
            const std::size_t h = home->second;
            if (directSet.contains(h) || !closure.contains(h))
                continue;
            if (file.definedTypes.contains(name) ||
                file.declaredSymbols.contains(name))
                continue; // forward-declared locally
            // A direct include that (forward-)declares the name
            // satisfies the use.
            bool viaDirect = false;
            for (std::size_t t : directSet)
                if (t < files.size() &&
                    files[t].declaredSymbols.contains(name)) {
                    viaDirect = true;
                    break;
                }
            if (viaDirect || allowedAt(file, rule, firstLine))
                continue;
            Diagnostic d;
            d.file = file.path;
            d.line = firstLine;
            d.rule = rule;
            d.message = "'" + name + "' is defined in " +
                        files[h].path +
                        ", which is only included transitively; "
                        "include it directly";
            out.push_back(std::move(d));
        }
    }
    return out;
}

// ----------------------------------------------------- entry point

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = {
        "nondeterminism",      "stdout-discipline", "naked-new",
        "header-guard",        "catch-all",         "root-registers",
        "seed-nondeterminism", "hot-path-alloc",    "trust-boundary",
        "include-hygiene",
    };
    return names;
}

void
sortDiagnostics(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

std::vector<Diagnostic>
runPasses(const std::vector<FileSummary> &files,
          const std::vector<std::string> &rules)
{
    const auto enabled = [&](const char *rule) {
        return rules.empty() ||
               std::find(rules.begin(), rules.end(), rule) !=
                   rules.end();
    };
    std::vector<Diagnostic> out;
    const auto append = [&](std::vector<Diagnostic> diags) {
        out.insert(out.end(),
                   std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));
    };
    if (enabled("trust-boundary"))
        append(trustBoundaryPass(files));
    if (enabled("include-hygiene"))
        append(includeHygienePass(files));
    sortDiagnostics(out);
    return out;
}

} // namespace cmt::analyze
