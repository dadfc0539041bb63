/**
 * @file
 * Ablation (Section 5.3): write-allocate without fetch.
 *
 * "If write allocation simply marks unwritten words as invalid rather
 * than loading them from memory, then chunks that get entirely
 * overwritten don't have to be read from memory and checked." This
 * figure runs the c scheme with and without the optimisation; the
 * write-stream benchmarks (swim, applu) benefit most.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "sim/system.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
ablWritealloc(Sweep &sweep, const Options &opt)
{
    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        SystemConfig with = baseConfig(bench, Scheme::kCached);
        SystemConfig without = with;
        without.l2.writeAllocNoFetch = false;
        sweep.add(bench + "/no-fetch", with);
        sweep.add(bench + "/fetch", without);
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Ablation", "Section 5.3 write-allocate-without-fetch",
               baseConfig("swim", Scheme::kCached));

        Table t("c scheme: with vs without the no-fetch optimisation");
        t.header({"bench", "no-fetch IPC", "fetch IPC", "gain",
                  "no-fetch BW", "fetch BW"});
        for (const auto &bench : benches) {
            const SimResult &a = rows.take();
            const SimResult &b = rows.take();
            t.row({bench, Table::num(a.ipc), Table::num(b.ipc),
                   Table::pct(a.ipc / b.ipc - 1.0),
                   Table::num(a.bandwidthBytesPerCycle, 2),
                   Table::num(b.bandwidthBytesPerCycle, 2)});
        }
        t.print(os);
        os << "\nMeasured trade-off: skipping the fetch saves bus reads\n"
           << "for fully overwritten chunks (lower BW column), but the\n"
           << "deferred merge of *partially* written chunks lands on the\n"
           << "eviction path instead of overlapping a demand fetch, so\n"
           << "IPC is roughly a wash on these workloads. The paper\n"
           << "motivates the optimisation for chunks that are entirely\n"
           << "overwritten - streaming writers - where the saved read\n"
           << "and check are pure profit.\n";
    };
}

} // namespace cmt::bench
