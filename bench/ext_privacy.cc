/**
 * @file
 * Extension figure: integrity + privacy (toward AEGIS).
 *
 * The paper protects integrity only; its successors add off-chip
 * encryption. This figure layers a counter-mode decrypt latency on
 * the c scheme's miss path and reports the incremental cost of
 * privacy on top of verification.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
extPrivacy(Sweep &sweep, const Options &opt)
{
    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        SystemConfig b = baseConfig(bench, Scheme::kBase);
        SystemConfig c = baseConfig(bench, Scheme::kCached);
        SystemConfig e = c;
        e.l2.encryptData = true;
        sweep.add(bench + "/base", b);
        sweep.add(bench + "/c", c);
        sweep.add(bench + "/c+enc", e);
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Extension", "privacy (off-chip encryption) on top of c",
               baseConfig("swim", Scheme::kCached));

        Table t("IPC: base vs c vs c+encryption (40-cycle decrypt)");
        t.header({"bench", "base", "c", "c+enc", "integrity cost",
                  "privacy adds"});
        for (const auto &bench : benches) {
            const double ipc_b = rows.take().ipc;
            const double ipc_c = rows.take().ipc;
            const double ipc_e = rows.take().ipc;
            t.row({bench, Table::num(ipc_b), Table::num(ipc_c),
                   Table::num(ipc_e), Table::pct(1 - ipc_c / ipc_b),
                   Table::pct(1 - ipc_e / ipc_c)});
        }
        t.print(os);
        os << "\nCounter-mode pads overlap decryption with the DRAM\n"
           << "access, so privacy costs a latency adder, not bandwidth -\n"
           << "cheap next to verification for bandwidth-bound "
              "workloads.\n";
    };
}

} // namespace cmt::bench
