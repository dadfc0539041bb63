#include "analyze/passes.h"

#include "analyze/index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <regex>
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

std::string
fileStem(const std::string &path)
{
    std::string base = baseName(path);
    const std::size_t dot = base.rfind('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
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
        : files_(files)
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

    /**
     * Precise resolution for lock propagation, where a spurious
     * match manufactures phantom deadlock edges (`doc.find()` on a
     * Json must not resolve to MemoCache::find, which locks).
     * Implicit-this calls bind within the caller's class; a
     * qualifier that names a class binds statically; a unique
     * definition binds anywhere; everything else — an ambiguous
     * name behind an untyped receiver — resolves to nothing.
     */
    std::vector<FnRef> resolveStrict(
        const std::string &callerClass, const Event &e) const
    {
        const std::vector<FnRef> &cands = candidates(e.name);
        if (cands.empty())
            return {};
        std::vector<FnRef> match;
        if (e.qualifier.empty()) {
            for (const FnRef &ref : cands)
                if (!fn(ref).className.empty() &&
                    fn(ref).className == callerClass)
                    match.push_back(ref);
        } else {
            for (const FnRef &ref : cands)
                if (fn(ref).className == e.qualifier)
                    match.push_back(ref);
        }
        if (!match.empty())
            return match;
        if (cands.size() == 1)
            return cands;
        return {};
    }

    const FunctionInfo &fn(const FnRef &ref) const
    {
        return files_[ref.file].functions[ref.fn];
    }

  private:
    const std::vector<FileSummary> &files_;
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
                case Event::Kind::kLock:
                case Event::Kind::kUnlock:
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

// ------------------------------------------------------- lock rule

namespace
{

/** Qualify a MutexLock argument so `mu_` in two classes stays two
 *  locks: `Class::mu_`, or `filestem::mu` for free functions.
 *  Compound expressions (a.mu, ptr->mu) already self-qualify. */
std::string
qualifyLock(const FileSummary &file, const FunctionInfo &fn,
            const std::string &expr)
{
    if (expr.find('.') != std::string::npos ||
        expr.find("->") != std::string::npos ||
        expr.find("::") != std::string::npos)
        return expr;
    const std::string prefix =
        fn.className.empty() ? fileStem(file.path) : fn.className;
    return prefix + "::" + expr;
}

struct EdgeSite
{
    std::string file;
    int line = 0;
    std::string via; ///< empty for a direct acquisition
};

/** May-acquire closure: every lock a function can take, directly or
 *  through any call chain. */
std::map<FnRef, std::set<std::string>>
transitiveAcquires(const std::vector<FileSummary> &files,
                   const CallResolver &resolver)
{
    std::map<FnRef, std::set<std::string>> acquires;
    for (std::size_t f = 0; f < files.size(); ++f)
        for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
            const FunctionInfo &fn = files[f].functions[k];
            for (const Event &e : fn.events)
                if (e.kind == Event::Kind::kLock)
                    acquires[{f, k}].insert(
                        qualifyLock(files[f], fn, e.name));
        }
    bool grew = true;
    while (grew) {
        grew = false;
        for (std::size_t f = 0; f < files.size(); ++f) {
            for (std::size_t k = 0; k < files[f].functions.size();
                 ++k) {
                const FnRef self{f, k};
                std::set<std::string> &mine = acquires[self];
                const std::string &callerClass =
                    files[f].functions[k].className;
                for (const Event &e :
                     files[f].functions[k].events) {
                    if (e.kind != Event::Kind::kCall &&
                        e.kind != Event::Kind::kVerify)
                        continue;
                    for (const FnRef &callee :
                         resolver.resolveStrict(callerClass, e)) {
                        auto it = acquires.find(callee);
                        if (it == acquires.end())
                            continue;
                        for (const std::string &lock : it->second)
                            grew |= mine.insert(lock).second;
                    }
                }
            }
        }
    }
    return acquires;
}

} // namespace

std::vector<Diagnostic>
lockOrderPass(const std::vector<FileSummary> &files)
{
    static const std::string rule = "lock-order";
    const CallResolver resolver(files);
    const std::map<FnRef, std::set<std::string>> acquires =
        transitiveAcquires(files, resolver);

    // held-before edges, first site wins (stable diagnostics).
    std::map<std::string, std::map<std::string, EdgeSite>> edges;
    const auto addEdge = [&](const std::string &from,
                             const std::string &to,
                             EdgeSite site) {
        edges[from].try_emplace(to, std::move(site));
    };

    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t k = 0; k < files[f].functions.size();
             ++k) {
            const FunctionInfo &fn = files[f].functions[k];
            if (functionAllowed(files[f], rule, fn))
                continue;
            std::vector<std::string> held;
            for (const Event &e : fn.events) {
                if (e.kind == Event::Kind::kLock) {
                    const std::string id =
                        qualifyLock(files[f], fn, e.name);
                    for (const std::string &h : held)
                        addEdge(h, id,
                                {files[f].path, e.line, ""});
                    held.push_back(id);
                } else if (e.kind == Event::Kind::kUnlock) {
                    const std::string id =
                        qualifyLock(files[f], fn, e.name);
                    auto it =
                        std::find(held.rbegin(), held.rend(), id);
                    if (it != held.rend())
                        held.erase(std::next(it).base());
                } else if ((e.kind == Event::Kind::kCall ||
                            e.kind == Event::Kind::kVerify) &&
                           !held.empty()) {
                    if (allowedAt(files[f], rule, e.line))
                        continue;
                    for (const FnRef &callee :
                         resolver.resolveStrict(fn.className, e)) {
                        auto it = acquires.find(callee);
                        if (it == acquires.end())
                            continue;
                        for (const std::string &lock : it->second)
                            for (const std::string &h : held)
                                addEdge(h, lock,
                                        {files[f].path, e.line,
                                         e.name});
                    }
                }
            }
        }
    }

    // Any edge u -> v with a path v ->* u closes a cycle.
    const auto pathBack =
        [&](const std::string &from,
            const std::string &to) -> std::vector<std::string> {
        std::map<std::string, std::string> parent;
        std::deque<std::string> queue{from};
        parent[from] = from;
        while (!queue.empty()) {
            const std::string cur = queue.front();
            queue.pop_front();
            if (cur == to)
                break;
            auto it = edges.find(cur);
            if (it == edges.end())
                continue;
            for (const auto &[next, site] : it->second)
                if (parent.try_emplace(next, cur).second)
                    queue.push_back(next);
        }
        std::vector<std::string> path;
        if (!parent.contains(to))
            return path;
        for (std::string cur = to;; cur = parent[cur]) {
            path.push_back(cur);
            if (cur == from)
                break;
        }
        std::reverse(path.begin(), path.end());
        return path;
    };

    std::vector<Diagnostic> out;
    std::set<std::set<std::string>> reported;
    for (const auto &[from, targets] : edges) {
        for (const auto &[to, site] : targets) {
            std::vector<std::string> back;
            if (from == to) {
                back = {to};
            } else {
                back = pathBack(to, from);
                if (back.empty())
                    continue;
            }
            std::set<std::string> key(back.begin(), back.end());
            key.insert(from);
            if (!reported.insert(key).second)
                continue;
            // back runs to -> ... -> from inclusive, so the chain
            // closes itself.
            std::string chain = from;
            for (const std::string &node : back)
                chain += " -> " + node;
            Diagnostic d;
            d.file = site.file;
            d.line = site.line;
            d.rule = rule;
            d.message = "lock-order cycle: " + chain +
                        (site.via.empty()
                             ? std::string()
                             : " (via call to '" + site.via +
                                   "')") +
                        "; two threads taking these in opposite "
                        "order deadlock";
            out.push_back(std::move(d));
        }
    }
    return out;
}

// ------------------------------------------------ error discipline

std::vector<Diagnostic>
errorDisciplinePass(const std::vector<FileSummary> &files)
{
    static const std::string rule = "error-discipline";
    static const std::regex nameRe(
        "^(verify|check|save|load|restore|persist)");
    const CallResolver resolver(files);

    const auto mustCheck = [&](const Event &e) {
        if (!std::regex_search(e.name, nameRe))
            return false;
        const std::vector<FnRef> &defs =
            resolver.candidates(e.name);
        if (defs.empty())
            // `verify` is the sanctioned integrity call even when
            // its definition is outside the indexed tree.
            return e.kind == Event::Kind::kVerify;
        // Mixed overload sets (some void) stay quiet: resolution
        // is by name only, so only flag when every definition
        // returns a checkable verdict.
        return std::all_of(
            defs.begin(), defs.end(), [&](const FnRef &ref) {
                const std::string &ret =
                    resolver.fn(ref).returnType;
                return ret == "bool" ||
                       ret.find("Status") != std::string::npos;
            });
    };

    std::vector<Diagnostic> out;
    for (const FileSummary &file : files) {
        for (const FunctionInfo &fn : file.functions) {
            for (const Event &e : fn.events) {
                if (!e.discarded)
                    continue;
                if (e.kind != Event::Kind::kCall &&
                    e.kind != Event::Kind::kVerify)
                    continue;
                if (!mustCheck(e) ||
                    allowedAt(file, rule, e.line))
                    continue;
                Diagnostic d;
                d.file = file.path;
                d.line = e.line;
                d.rule = rule;
                d.message =
                    "result of '" + e.name +
                    "()' is discarded; a bool/Status verify or "
                    "persistence verdict must be checked";
                out.push_back(std::move(d));
            }
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
        "lock-order",          "error-discipline",  "include-hygiene",
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
    if (enabled("lock-order"))
        append(lockOrderPass(files));
    if (enabled("error-discipline"))
        append(errorDisciplinePass(files));
    if (enabled("include-hygiene"))
        append(includeHygienePass(files));
    sortDiagnostics(out);
    return out;
}

} // namespace cmt::analyze
