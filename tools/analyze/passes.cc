#include "analyze/passes.h"

#include "analyze/index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace cmt::analyze
{

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
        "seed-nondeterminism", "hot-path-alloc",    "include-hygiene",
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
    std::vector<Diagnostic> out;
    if (rules.empty() || std::find(rules.begin(), rules.end(),
                                   "include-hygiene") != rules.end())
        out = includeHygienePass(files);
    sortDiagnostics(out);
    return out;
}

} // namespace cmt::analyze
