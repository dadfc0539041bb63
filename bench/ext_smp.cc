/**
 * @file
 * Extension bench: verification cost under multiprogramming.
 *
 * Section 4 motivates the secure processor with Bob renting compute
 * while using his machine; the authors' follow-up work extends the
 * tree to SMP systems. This harness runs 1, 2 and 4 programs over one
 * shared verified L2 and reports how the c scheme's cost composes
 * with inter-program contention for the bus and the hash engine.
 *
 * The runs go through the shared Sweep engine as addSmpRow rows (an
 * SMP mix is not a single SystemConfig): each is keyed by its
 * SmpConfig fingerprint and packs per-core IPCs into
 * SimResult::perCoreIpc, so duplicate SMP mixes in one sweep run once,
 * exactly like single-core rows.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "sim/smp.h"
#include "sim/system.h"
#include "support/table.h"
#include "tree/scheme.h"

using namespace cmt;
using namespace cmt::bench;

namespace
{

SmpConfig
mixConfig(const std::vector<std::string> &mix, Scheme scheme)
{
    SmpConfig cfg;
    cfg.benchmarks = mix;
    cfg.warmupInstructions =
        static_cast<std::uint64_t>(200'000 * reproScale());
    cfg.measureInstructions =
        static_cast<std::uint64_t>(500'000 * reproScale());
    cfg.l2.scheme = scheme;
    // A shared multiprogram-scale L2. 8 ways: at 4-way, the programs'
    // set-space overlaps trigger an inclusion pathology (the L2 LRU
    // cannot see L1 hits, so its victims are exactly the lines the
    // L1s are hottest on, and every back-invalidation feeds the loop).
    cfg.l2.sizeBytes = 4 << 20;
    cfg.l2.assoc = 8;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv, "ext_smp");

    SystemConfig show = baseConfig("twolf", Scheme::kCached);
    header("Extension", "multiprogrammed SMP over one verified L2",
           show);

    const std::vector<std::vector<std::string>> all_mixes = {
        {"twolf"},
        {"twolf", "gzip"},
        {"twolf", "swim"},
        {"twolf", "gzip", "vpr", "swim"},
    };
    std::vector<std::vector<std::string>> mixes;
    for (const auto &mix : all_mixes) {
        bool match = opt.filter.empty();
        for (const auto &b : mix)
            match = match || b.find(opt.filter) != std::string::npos;
        if (match)
            mixes.push_back(mix);
    }
    if (mixes.empty())
        cmt_fatal("--filter '%s' matches no mix", opt.filter.c_str());

    const Scheme schemes[2] = {Scheme::kBase, Scheme::kCached};

    Sweep sweep(opt);
    for (const auto &mix : mixes) {
        for (const Scheme scheme : schemes) {
            std::string label = schemeName(scheme);
            for (const auto &b : mix)
                label += ":" + b;
            // Mirror the mix's first program in the tag so error rows
            // and JSON stay identifiable; addSmpRow runs the mix.
            addSmpRow(sweep, label, baseConfig(mix.front(), scheme),
                      mixConfig(mix, scheme), false);
        }
    }
    sweep.run();

    Table t("aggregate and per-program IPC, base vs c (shared 4MB L2)");
    t.header({"mix", "base agg", "c agg", "agg cost", "twolf base",
              "twolf c", "twolf cost"});
    for (const auto &mix : mixes) {
        const SimResult &base = sweep.take();
        const SimResult &c = sweep.take();
        std::string name;
        for (const auto &b : mix)
            name += (name.empty() ? "" : "+") + b;
        // Error rows leave perCoreIpc empty; keep the table alive.
        const double base0 =
            base.perCoreIpc.empty() ? 0.0 : base.perCoreIpc[0];
        const double c0 = c.perCoreIpc.empty() ? 0.0 : c.perCoreIpc[0];
        t.row({name, Table::num(base.ipc), Table::num(c.ipc),
               Table::pct(1 - c.ipc / base.ipc), Table::num(base0),
               Table::num(c0), Table::pct(base0 ? 1 - c0 / base0 : 0.0)});
    }
    t.print(std::cout);
    std::cout
        << "\nOne tree and one hash engine verify every program's\n"
        << "traffic; contention compounds with verification, hitting\n"
        << "hardest when a bandwidth hog (swim) shares the machine.\n";
    sweep.writeJson();
    return 0;
}
