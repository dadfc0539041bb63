/**
 * @file
 * cmt_tracegen: dump a specgen benchmark to a CMT trace file, so runs
 * can be replayed exactly (or inspected / transformed by other
 * tooling).
 *
 *   cmt_tracegen --bench mcf --instr 1000000 --seed 1 --out mcf.cmtt
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "cpu/trace.h"
#include "support/parse.h"
#include "trace/specgen.h"
#include "trace/trace_file.h"

using namespace cmt;

int
main(int argc, char **argv)
{
    std::string bench = "gcc", out;
    std::uint64_t instructions = 1'000'000, seed = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("cmt_tracegen", "missing value for %s",
                           arg.c_str());
            return argv[++i];
        };
        if (arg == "--bench") {
            bench = value();
            const auto &names = specBenchmarks();
            if (std::find(names.begin(), names.end(), bench) == names.end())
                usageError("cmt_tracegen", "unknown benchmark '%s'",
                           bench.c_str());
        } else if (arg == "--instr")
            instructions =
                parseFlag<std::uint64_t>("cmt_tracegen", arg, value());
        else if (arg == "--seed")
            seed =
                parseFlag<std::uint64_t>("cmt_tracegen", arg, value());
        else if (arg == "--out")
            out = value();
        else
            usageError("cmt_tracegen", "unknown option '%s'", arg.c_str());
    }
    if (out.empty())
        usageError("cmt_tracegen", "--out FILE is required");

    SpecGen gen(profileFor(bench), seed);
    TraceWriter writer(out);
    TraceInstr instr;
    for (std::uint64_t i = 0; i < instructions; ++i) {
        gen.next(instr);
        writer.append(instr);
    }
    std::printf("wrote %llu instructions of '%s' (seed %llu) to %s\n",
                static_cast<unsigned long long>(writer.written()),
                bench.c_str(), static_cast<unsigned long long>(seed),
                out.c_str());
    return 0;
}
