#include "analyze/analysis.h"

#include "analyze/index.h"
#include "analyze/passes.h"
#include "analyze/tokenizer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace cmt::analyze
{

namespace
{

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || ext == ".cpp" ||
           ext == ".hpp";
}

/** Generated trees, committed fixtures, vendored code, build dirs.
 *  Explicit paths are always checked. */
bool
skipDirectory(const std::string &name)
{
    if (name.empty() || name[0] == '.')
        return true;
    if (name.rfind("build", 0) == 0)
        return true;
    return name == "fixtures" || name == "results" ||
           name == "third_party" || name == "corpus";
}

void
collectFiles(const std::string &path, std::vector<std::string> &out,
             std::vector<Diagnostic> &diags)
{
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        std::vector<std::string> entries;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(path, ec)) {
            const std::string name =
                entry.path().filename().string();
            if (entry.is_directory()) {
                if (!skipDirectory(name))
                    entries.push_back(entry.path().string());
            } else if (isSourceFile(entry.path())) {
                entries.push_back(entry.path().string());
            }
        }
        std::sort(entries.begin(), entries.end());
        for (const std::string &entry : entries) {
            if (fs::is_directory(entry, ec))
                collectFiles(entry, out, diags);
            else
                out.push_back(entry);
        }
        return;
    }
    if (fs::is_regular_file(path, ec)) {
        out.push_back(path);
        return;
    }
    Diagnostic d;
    d.file = path;
    d.rule = "io";
    d.message = "not a file or directory";
    diags.push_back(std::move(d));
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Repo-relative, '/'-separated path for stable diagnostics and
 *  rule scoping (src/tree/... matching). */
std::string
relativize(const std::string &path, const std::string &root)
{
    std::string p = path;
    std::string prefix = root;
    while (!prefix.empty() && prefix.back() == '/')
        prefix.pop_back();
    if (!prefix.empty() && prefix != "." &&
        p.rfind(prefix + "/", 0) == 0)
        p = p.substr(prefix.size() + 1);
    while (p.rfind("./", 0) == 0)
        p = p.substr(2);
    return p;
}

} // namespace

AnalyzeReport
analyzeTree(const AnalyzeOptions &options)
{
    AnalyzeReport report;

    // (path, indexed): the whole-program passes see only the trees
    // their rules are defined over; explicit paths always index.
    std::vector<std::pair<std::string, bool>> roots;
    for (const std::string &path : options.paths)
        roots.emplace_back(path, true);
    if (roots.empty()) {
        static const std::pair<const char *, bool> kDefaultRoots[] = {
            {"src", true},    {"bench", true},     {"tools", true},
            {"tests", false}, {"examples", false},
        };
        for (const auto &[dir, index] : kDefaultRoots) {
            const std::string p = options.root + "/" + dir;
            std::error_code ec;
            if (fs::is_directory(p, ec))
                roots.emplace_back(p, index);
        }
    }

    std::vector<FileSummary> indexed;
    for (const auto &[root, index] : roots) {
        std::vector<std::string> paths;
        collectFiles(root, paths, report.diagnostics);
        for (const std::string &path : paths) {
            std::string contents;
            if (!readFile(path, &contents)) {
                Diagnostic d;
                d.file = path;
                d.rule = "io";
                d.message = "cannot read file";
                report.diagnostics.push_back(std::move(d));
                continue;
            }
            const std::vector<Token> tokens = tokenize(contents);
            FileSummary summary =
                summarizeSource(relativize(path, options.root), tokens);
            std::vector<Diagnostic> findings =
                fileRulePass(summary, scrubSource(contents, tokens),
                             options.rules);
            report.diagnostics.insert(
                report.diagnostics.end(),
                std::make_move_iterator(findings.begin()),
                std::make_move_iterator(findings.end()));
            if (index)
                indexed.push_back(std::move(summary));
            ++report.filesChecked;
        }
    }

    std::vector<Diagnostic> findings =
        runPasses(indexed, options.rules);
    report.diagnostics.insert(
        report.diagnostics.end(),
        std::make_move_iterator(findings.begin()),
        std::make_move_iterator(findings.end()));
    sortDiagnostics(report.diagnostics);
    return report;
}

} // namespace cmt::analyze
