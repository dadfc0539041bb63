/**
 * @file
 * cmt_fuzz: differential cross-policy fuzzer (DESIGN.md section 9).
 *
 *   cmt_fuzz --seed S --iters N [--out-dir DIR] [--no-minimize]
 *   cmt_fuzz --replay FILE [--replay FILE ...]
 *   cmt_fuzz --replay-dir DIR
 *
 * Fuzz mode generates cases for seeds S, S+1, ..., S+N-1 and runs
 * each differentially across base / oracle / naive / cached /
 * incremental. A divergence is minimized (unless --no-minimize) and
 * written to --out-dir (default ".") as case_<seed>.json, ready to be
 * committed under tests/fuzz/corpus/.
 *
 * Replay mode re-executes committed cases: a case fails when the run
 * diverges or when its expect_detection contract disagrees with the
 * oracle's verdict.
 *
 * Output is bit-reproducible: everything derives from --seed, nothing
 * from the clock or the pid (cmt_analyze enforces this for all fuzz and
 * test code).
 *
 * Exit status: 0 clean, 1 divergence or replay failure, 2 usage or
 * I/O errors.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/differ.h"
#include "fuzz/trace_gen.h"
#include "support/parse.h"

namespace fs = std::filesystem;
using namespace cmt;
using namespace cmt::fuzz;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr << "usage: cmt_fuzz --seed S --iters N [--out-dir DIR]"
                 " [--no-minimize]\n"
                 "       cmt_fuzz --replay FILE [--replay FILE ...]\n"
                 "       cmt_fuzz --replay-dir DIR\n";
    std::exit(2);
}

bool
readCaseFile(const std::string &path, FuzzCase *out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::cerr << "cmt_fuzz: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    if (!FuzzCase::parse(buf.str(), out, &error)) {
        std::cerr << "cmt_fuzz: " << path << ": " << error << "\n";
        return false;
    }
    return true;
}

/** @return true when the replayed case upholds its contract. */
bool
replayCase(const std::string &path)
{
    FuzzCase c;
    if (!readCaseFile(path, &c))
        std::exit(2);
    RunOutcome oracle;
    const Divergence d = runDifferential(c, &oracle);
    const std::string name = fs::path(path).filename().string();
    if (d.found) {
        std::cout << name << ": FAIL (" << d.kind << " on " << d.target
                  << ": " << d.detail << ")\n";
        return false;
    }
    const bool detected = oracle.detectedAt >= 0;
    if (detected != c.expectDetection) {
        std::cout << name << ": FAIL (expect_detection="
                  << (c.expectDetection ? "true" : "false")
                  << " but oracle "
                  << (detected ? "detected at index " +
                                     std::to_string(oracle.detectedAt)
                               : std::string("detected nothing"))
                  << ")\n";
        return false;
    }
    std::cout << name << ": PASS"
              << (detected ? " (detected at index " +
                                 std::to_string(oracle.detectedAt) + ")"
                           : " (clean)")
              << "\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 0;
    std::uint64_t iters = 0;
    bool haveSeed = false;
    bool haveIters = false;
    bool noMinimize = false;
    std::string outDir = ".";
    std::vector<std::string> replayFiles;
    std::string replayDir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--seed") {
            seed =
                parseFlag<std::uint64_t>("cmt_fuzz", arg, value());
            haveSeed = true;
        } else if (arg == "--iters") {
            iters =
                parseFlag<std::uint64_t>("cmt_fuzz", arg, value());
            haveIters = true;
        } else if (arg == "--out-dir") {
            outDir = value();
        } else if (arg == "--no-minimize") {
            noMinimize = true;
        } else if (arg == "--replay") {
            replayFiles.push_back(value());
        } else if (arg == "--replay-dir") {
            replayDir = value();
        } else {
            usage();
        }
    }

    // ---- replay mode ------------------------------------------------
    if (!replayFiles.empty() || !replayDir.empty()) {
        if (haveSeed || haveIters)
            usage();
        if (!replayDir.empty()) {
            std::error_code ec;
            if (!fs::is_directory(replayDir, ec)) {
                std::cerr << "cmt_fuzz: no replay directory "
                          << replayDir << "\n";
                return 2;
            }
            for (const auto &entry :
                 fs::directory_iterator(replayDir, ec)) {
                if (entry.is_regular_file(ec) &&
                    entry.path().extension() == ".json")
                    replayFiles.push_back(entry.path().string());
            }
            std::sort(replayFiles.begin(), replayFiles.end());
            if (replayFiles.empty()) {
                std::cerr << "cmt_fuzz: no *.json cases in "
                          << replayDir << "\n";
                return 2;
            }
        }
        std::size_t failures = 0;
        for (const std::string &path : replayFiles)
            if (!replayCase(path))
                ++failures;
        std::cout << "cmt_fuzz: " << (failures == 0 ? "PASS" : "FAIL")
                  << " (" << replayFiles.size() << " cases, "
                  << failures << " failing)\n";
        return failures == 0 ? 0 : 1;
    }

    // ---- fuzz mode --------------------------------------------------
    if (!haveSeed || !haveIters || iters == 0)
        usage();

    std::size_t divergences = 0;
    for (std::uint64_t s = seed; s < seed + iters; ++s) {
        FuzzCase c = generateCase(s);
        RunOutcome oracle;
        Divergence d = runDifferential(c, &oracle);
        if (!d.found) {
            std::cout << "seed " << s << ": ok ("
                      << c.ops.size() << " ops, "
                      << (oracle.detectedAt >= 0 ? "detected" : "clean")
                      << ")\n";
            continue;
        }
        ++divergences;
        std::cout << "seed " << s << ": DIVERGENCE " << d.kind
                  << " on " << d.target << " (" << d.detail << ")\n";
        FuzzCase emit = c;
        if (!noMinimize) {
            emit = minimizeCase(c, d.kind);
            std::cout << "seed " << s << ": minimized "
                      << c.ops.size() << " -> " << emit.ops.size()
                      << " ops\n";
        }
        emit.note = "divergence " + d.kind + " on " + d.target +
                    " (seed " + std::to_string(s) + ")";
        emit.expectDetection = oracle.detectedAt >= 0;
        const fs::path out =
            fs::path(outDir) / ("case_" + std::to_string(s) + ".json");
        std::error_code ec;
        fs::create_directories(outDir, ec);
        std::ofstream os(out, std::ios::binary);
        if (!os) {
            std::cerr << "cmt_fuzz: cannot write " << out.string()
                      << "\n";
            return 2;
        }
        os << emit.dump();
        std::cout << "seed " << s << ": wrote " << out.string()
                  << "\n";
    }
    std::cout << "cmt_fuzz: " << (divergences == 0 ? "PASS" : "FAIL")
              << " (" << iters << " seeds, " << divergences
              << " divergent)\n";
    return divergences == 0 ? 0 : 1;
}
