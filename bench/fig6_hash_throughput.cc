/**
 * @file
 * Figure 6 reproduction: effect of hash-unit throughput on IPC for
 * the c scheme (1 MB L2, 64 B blocks). Throughputs are 6.4, 3.2,
 * 1.6 and 0.8 GB/s (one 64-byte hash per 10/20/40/80 cycles at 1 GHz).
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
fig6HashThroughput(Sweep &sweep, const Options &opt)
{
    static constexpr double kThroughputs[] = {6.4, 3.2, 1.6, 0.8};

    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        for (const double gbps : kThroughputs) {
            SystemConfig cfg = baseConfig(bench, Scheme::kCached);
            cfg.hash.throughputBytesPerCycle = gbps;
            sweep.add(bench + "/" + std::to_string(gbps), cfg);
        }
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Figure 6", "IPC vs hash throughput (c scheme, 1MB, 64B)",
               baseConfig("swim", Scheme::kCached));

        Table t("Figure 6 - IPC by hash throughput (GB/s)");
        t.header({"bench", "6.4", "3.2", "1.6", "0.8", "0.8/6.4"});
        for (const auto &bench : benches) {
            std::vector<std::string> row{bench};
            double first = 0, last = 0;
            for (const double gbps : kThroughputs) {
                const double ipc = rows.take().ipc;
                row.push_back(Table::num(ipc));
                if (gbps == kThroughputs[0])
                    first = ipc;
                last = ipc;
            }
            row.push_back(Table::num(last / first, 2));
            t.row(std::move(row));
        }
        t.print(os);
        os << "\nExpected shape (paper): flat from 3.2 GB/s up; minor loss\n"
           << "at 1.6 GB/s; large degradation at 0.8 GB/s for the high-\n"
           << "bandwidth benchmarks (mcf, applu, art, swim) because the\n"
           << "hash unit then throttles effective memory bandwidth.\n";
    };
}

} // namespace cmt::bench
