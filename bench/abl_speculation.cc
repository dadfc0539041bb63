/**
 * @file
 * Ablation (Section 5.8): speculative use of unchecked data.
 *
 * The paper commits instructions whose data is still being verified
 * in the background (checks need not be precise; only crypto ops
 * wait). This ablation turns speculation off - loads complete only
 * after the full check chain - quantifying how much of the cached
 * scheme's performance comes from hiding check latency.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
ablSpeculation(Sweep &sweep, const Options &opt)
{
    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        SystemConfig spec = baseConfig(bench, Scheme::kCached);
        SystemConfig block = spec;
        block.l2.speculativeChecks = false;
        sweep.add(bench + "/speculative", spec);
        sweep.add(bench + "/blocking", block);
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Ablation", "speculative vs blocking integrity checks",
               baseConfig("twolf", Scheme::kCached));

        Table t("c scheme IPC: speculative vs blocking checks");
        t.header({"bench", "speculative", "blocking", "loss"});
        for (const auto &bench : benches) {
            const double a = rows.take().ipc;
            const double b = rows.take().ipc;
            t.row({bench, Table::num(a), Table::num(b),
                   Table::pct(1.0 - b / a)});
        }
        t.print(os);
        os << "\nBlocking adds the hash latency (and any parent-fetch\n"
           << "latency) to every L2 miss: memory-bound benchmarks lose\n"
           << "substantially, confirming why Section 5.8 allows\n"
           << "imprecise integrity exceptions.\n";
    };
}

} // namespace cmt::bench
