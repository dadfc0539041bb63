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
 * Each mix is one plain sweep row whose benchmark names the whole mix
 * ("twolf+gzip"): System builds a core per program, and a multi-core
 * row reports its per-core IPCs in SimResult::perCoreIpc. The
 * one-program mix is the paper's single-core machine.
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
mixMachine(const Mix &mix, Scheme scheme)
{
    SystemConfig cfg;
    cfg.benchmark = mixName(mix);
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
            sweep.add(label, mixMachine(mix, scheme));
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
            // twolf runs on core 0. A single-core row reports no
            // per-core split (nor does an error row, whose ipc is 0).
            const auto twolf = [](const SimResult &r) {
                return r.perCoreIpc.empty() ? r.ipc : r.perCoreIpc[0];
            };
            const double base0 = twolf(base);
            const double c0 = twolf(c);
            t.row({mixName(mix), Table::num(base.ipc), Table::num(c.ipc),
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
