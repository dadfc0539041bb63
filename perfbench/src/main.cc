/**
 * @file
 * cmt_perfbench: the repository benchmark's entry point.
 *
 *   cmt_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload (sim_naive_swim, sim_cached_twolf, served_hot_64b,
 * served_scatter_4k), prints what it measured, and ends its standard
 * output with one JSON line: correct, attempted, failed and the
 * metrics - the end-to-end ones with --trace 0, the per-layer ones
 * with --trace 1. Exits non-zero if any operation failed or any
 * output was wrong.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "cmt_perfbench: %s\nusage: cmt_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

/** Directory holding this executable (cmt_served and cmt_sim sit
 *  beside it). */
std::filesystem::path
exeDir()
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        usage("cannot locate /proc/self/exe");
    return exe.parent_path();
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            opt.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + arg).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    const bool sim = isSimWorkload(opt.workload);
    if (!sim && !isServedWorkload(opt.workload))
        usage(("unknown workload " + opt.workload).c_str());

    // Scratch files live beside the binary, addressed relative to the
    // working directory so socket paths stay under the kernel's limit.
    const std::filesystem::path bin = exeDir();
    std::error_code ec;
    std::filesystem::path work = bin / "run";
    std::filesystem::remove_all(work, ec);
    std::filesystem::create_directories(work, ec);
    if (ec)
        usage("cannot create the scratch directory");
    const std::filesystem::path rel =
        std::filesystem::relative(work, std::filesystem::current_path(), ec);
    opt.workDir = (ec || rel.empty() ? work : rel).string();
    opt.binDir = bin.string();

    std::printf("cmt_perfbench: workload %s, seed %llu, %g s, %s run\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced");
    std::fflush(stdout);
    const RunOutcome out =
        sim ? runSimWorkload(opt) : runServedWorkload(opt);

    std::vector<Metric> metrics;
    std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
    for (const MetricSpec &spec :
         opt.trace ? perLayerMetrics() : endToEndMetrics()) {
        const auto it = out.metrics.find(spec.name);
        metrics.push_back({spec.name,
                           it == out.metrics.end() ? 0.0 : it->second,
                           spec.unit});
        printLine(spec.name, metrics.back().value, spec.unit);
    }
    const bool correct = out.correct && out.failed == 0;
    printResult(correct, std::max<std::uint64_t>(out.attempted, 1),
                out.failed, metrics);
    return correct ? 0 : 1;
}
