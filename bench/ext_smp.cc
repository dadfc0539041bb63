/**
 * @file
 * Extension figure: verification cost under multiprogramming.
 *
 * Section 4 motivates the secure processor with Bob renting compute
 * while using his machine; the authors' follow-up work extends the
 * tree to SMP systems. This figure runs 1, 2 and 4 programs over one
 * shared verified L2 and reports how the c scheme's cost composes
 * with inter-program contention for the bus and the hash engine.
 *
 * Each mix is one System with a core per program (mixTraces), run
 * through the shared Sweep engine as an addSmpRow row that packs the
 * per-core IPCs into SimResult::perCoreIpc.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "sim/system.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

namespace
{

/** The shared machine every mix runs on. */
SystemConfig
mixMachine(Scheme scheme)
{
    SystemConfig cfg;
    cfg.warmupInstructions = 200'000;
    cfg.measureInstructions = 500'000;
    cfg.scale(reproScale());
    cfg.l2.scheme = scheme;
    // A shared multiprogram-scale L2. 8 ways: at 4-way, the programs'
    // set-space overlaps trigger an inclusion pathology (the L2 LRU
    // cannot see L1 hits, so its victims are exactly the lines the
    // L1s are hottest on, and every back-invalidation feeds the loop).
    cfg.l2.sizeBytes = 4 << 20;
    cfg.l2.assoc = 8;
    // Room for four staggered 4 GB per-core slices in one tree (the
    // backing store is sparse, so the capacity is free).
    cfg.l2.protectedSize = 32ULL << 30;
    return cfg;
}

constexpr Scheme kSchemes[] = {Scheme::kBase, Scheme::kCached};

/** Every mix, before --filter. */
const std::vector<Mix> kMixes = {
    {"twolf"},
    {"twolf", "gzip"},
    {"twolf", "swim"},
    {"twolf", "gzip", "vpr", "swim"},
};

} // namespace

Renderer
extSmp(Sweep &sweep, const Options &opt)
{
    const std::vector<Mix> mixes = filterMixes(opt, "ext_smp", kMixes);

    for (const auto &mix : mixes) {
        for (const Scheme scheme : kSchemes) {
            std::string label = schemeName(scheme);
            for (const auto &b : mix)
                label += ":" + b;
            addSmpRow(sweep, label, mixMachine(scheme), mix, false);
        }
    }

    return [mixes](std::ostream &os, Rows &rows) {
        header(os, "Extension", "multiprogrammed SMP over one verified L2",
               baseConfig("twolf", Scheme::kCached));

        Table t("aggregate and per-program IPC, base vs c (shared 4MB L2)");
        t.header({"mix", "base agg", "c agg", "agg cost", "twolf base",
                  "twolf c", "twolf cost"});
        for (const auto &mix : mixes) {
            const SimResult &base = rows.take();
            const SimResult &c = rows.take();
            std::string name;
            for (const auto &b : mix)
                name += (name.empty() ? "" : "+") + b;
            // Error rows leave perCoreIpc empty; keep the table alive.
            const double base0 =
                base.perCoreIpc.empty() ? 0.0 : base.perCoreIpc[0];
            const double c0 = c.perCoreIpc.empty() ? 0.0 : c.perCoreIpc[0];
            t.row({name, Table::num(base.ipc), Table::num(c.ipc),
                   Table::pct(1 - c.ipc / base.ipc), Table::num(base0),
                   Table::num(c0),
                   Table::pct(base0 ? 1 - c0 / base0 : 0.0)});
        }
        t.print(os);
        os << "\nOne tree and one hash engine verify every program's\n"
           << "traffic; contention compounds with verification, hitting\n"
           << "hardest when a bandwidth hog (swim) shares the machine.\n";
    };
}

} // namespace cmt::bench
