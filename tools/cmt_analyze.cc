/**
 * @file
 * cmt_analyze - the repo's static analysis.
 *
 * One walk over the tree reads and lexes each file once and runs two
 * kinds of rule (tools/analyze/passes.h): eight per-file line rules
 * (nondeterminism, stdout-discipline, naked-new, header-guard,
 * catch-all, root-registers, seed-nondeterminism, hot-path-alloc)
 * on src/ bench/ tools/ tests/ examples/, and four whole-program
 * passes on a cross-translation-unit symbol index of src/ tools/
 * bench/: trust-boundary (the paper's verify-before-use invariant as
 * a taint rule), lock-order (deadlock freedom over MutexLock
 * acquisition chains), error-discipline (discarded
 * verify/persistence verdicts), and include-hygiene.
 * Suppress one finding with `// cmt-analyze: allow(<rule>)`.
 *
 * Exit codes (contract covered by the analyze_* ctests):
 *   0  clean
 *   1  at least one diagnostic
 *   2  usage or I/O error (unreadable explicit path)
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/passes.h"

namespace
{

void
usage()
{
    std::printf(
        "usage: cmt_analyze [--root DIR] [--rule NAME]... [PATH...]\n"
        "  Checks PATHs (files or directories). With no PATH,\n"
        "  checks src/ bench/ tools/ tests/ examples/ under --root\n"
        "  (default: the current directory); the whole-program\n"
        "  rules index src/ tools/ bench/ of them. --rule restricts\n"
        "  the rules run.\n"
        "  Suppress one finding with "
        "'// cmt-analyze: allow(<rule>)'.\n"
        "rules:\n");
    for (const std::string &rule : cmt::analyze::ruleNames())
        std::printf("  %s\n", rule.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    cmt::analyze::AnalyzeOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "cmt_analyze: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--root") {
            const char *v = value("--root");
            if (v == nullptr)
                return 2;
            options.root = v;
        } else if (arg == "--rule") {
            const char *v = value("--rule");
            if (v == nullptr)
                return 2;
            const std::vector<std::string> &known =
                cmt::analyze::ruleNames();
            if (std::find(known.begin(), known.end(), v) ==
                known.end()) {
                std::fprintf(stderr,
                             "cmt_analyze: unknown rule '%s' (try "
                             "--help)\n",
                             v);
                return 2;
            }
            options.rules.push_back(v);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "cmt_analyze: unknown option '%s' (try "
                         "--help)\n",
                         arg.c_str());
            return 2;
        } else {
            options.paths.push_back(arg);
        }
    }

    const cmt::analyze::AnalyzeReport report =
        cmt::analyze::analyzeTree(options);

    bool ioError = false;
    std::size_t findings = 0;
    for (const cmt::analyze::Diagnostic &d : report.diagnostics) {
        if (d.rule == "io") {
            std::fprintf(stderr, "cmt_analyze: %s: %s\n",
                         d.file.c_str(), d.message.c_str());
            ioError = true;
            continue;
        }
        std::fprintf(stderr, "%s:%d: [%s] %s\n", d.file.c_str(),
                     d.line, d.rule.c_str(), d.message.c_str());
        ++findings;
    }
    if (report.filesChecked == 0) {
        std::fprintf(stderr,
                     "cmt_analyze: nothing to analyze under '%s'\n",
                     options.root.c_str());
        return 2;
    }
    if (ioError)
        return 2;
    if (findings > 0) {
        std::fprintf(stderr, "cmt_analyze: %zu finding%s\n",
                     findings, findings == 1 ? "" : "s");
        return 1;
    }
    return 0;
}
