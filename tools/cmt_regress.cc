/**
 * @file
 * cmt_regress: guard the repo's reproduced numbers against drift.
 *
 *   cmt_regress [options]                  directory mode
 *   cmt_regress [options] BASELINE CURRENT file mode
 *
 *     --baselines DIR    committed baselines (default results/baselines)
 *     --results DIR      fresh sweep output  (default results)
 *     --verbose          list matched rows too
 *
 * Directory mode pairs every baselines/<figure>.json with
 * results/<figure>.json and compares them; a baseline without a fresh
 * counterpart is itself a failure (the tracked experiment silently
 * stopped running). Extra result files without baselines are noted
 * but allowed - new experiments gain baselines when they are ready.
 *
 * Exit status: 0 all clean, 1 any drift/missing/incomparable,
 * 2 usage or I/O errors.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/regress.h"
#include "support/json.h"

namespace fs = std::filesystem;
using namespace cmt;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: cmt_regress [--baselines DIR] [--results DIR] "
           "[--verbose]\n"
           "                   [BASELINE.json CURRENT.json]\n";
    std::exit(2);
}

bool
readJsonFile(const std::string &path, Json *out, std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string parseError;
    if (!Json::parse(buf.str(), out, &parseError)) {
        *error = path + ": " + parseError;
        return false;
    }
    return true;
}

/** @return true when the comparison is clean. */
bool
compareFiles(const std::string &baselinePath,
             const std::string &currentPath, bool verbose)
{
    Json baseline, current;
    std::string error;
    if (!readJsonFile(baselinePath, &baseline, &error) ||
        !readJsonFile(currentPath, &current, &error)) {
        std::cerr << "cmt_regress: " << error << "\n";
        std::exit(2);
    }
    RegressReport report = compareSweeps(baseline, current);
    if (report.figure.empty())
        report.figure = fs::path(baselinePath).stem().string();
    printReport(std::cout, report, verbose);
    return report.clean();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinesDir = "results/baselines";
    std::string resultsDir = "results";
    bool verbose = false;
    std::vector<std::string> positional;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--baselines") {
            baselinesDir = value();
        } else if (arg == "--results") {
            resultsDir = value();
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            positional.push_back(arg);
        }
    }

    if (positional.size() == 2) {
        const bool clean = compareFiles(positional[0], positional[1],
                                        verbose);
        std::cout << "cmt_regress: " << (clean ? "PASS" : "FAIL")
                  << "\n";
        return clean ? 0 : 1;
    }
    if (!positional.empty())
        usage();

    std::error_code ec;
    if (!fs::is_directory(baselinesDir, ec)) {
        std::cerr << "cmt_regress: no baseline directory "
                  << baselinesDir << "\n";
        return 2;
    }
    std::vector<std::string> baselines;
    for (const auto &entry : fs::directory_iterator(baselinesDir, ec)) {
        if (entry.is_regular_file(ec) &&
            entry.path().extension() == ".json")
            baselines.push_back(entry.path().string());
    }
    std::sort(baselines.begin(), baselines.end());
    if (baselines.empty()) {
        std::cerr << "cmt_regress: no *.json baselines in "
                  << baselinesDir << "\n";
        return 2;
    }

    std::size_t failures = 0;
    for (const std::string &baselinePath : baselines) {
        const fs::path name = fs::path(baselinePath).filename();
        const fs::path currentPath = fs::path(resultsDir) / name;
        if (!fs::is_regular_file(currentPath, ec)) {
            std::cout << name.stem().string()
                      << ": FAIL (baseline has no fresh sweep at "
                      << currentPath.string() << ")\n";
            ++failures;
            continue;
        }
        if (!compareFiles(baselinePath, currentPath.string(), verbose))
            ++failures;
    }

    std::cout << "cmt_regress: " << (failures == 0 ? "PASS" : "FAIL")
              << " (" << baselines.size() << " figures, " << failures
              << " failing)\n";
    return failures == 0 ? 0 : 1;
}
