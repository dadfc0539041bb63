/**
 * @file
 * Figure 5 reproduction (1 MB L2, 64 B blocks):
 *  (a) additional RAM block loads per L2 miss for c and naive;
 *  (b) memory bandwidth usage normalised to base.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "sim/system.h"
#include "support/table.h"
#include "tree/layout.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
fig5Bandwidth(Sweep &sweep, const Options &opt)
{
    static constexpr Scheme kSchemes[] = {Scheme::kCached, Scheme::kNaive};

    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        sweep.add(bench + "/base", baseConfig(bench, Scheme::kBase));
        for (const Scheme scheme : kSchemes)
            sweep.add(bench + "/" + schemeName(scheme),
                      baseConfig(bench, scheme));
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Figure 5", "bandwidth pollution: c vs naive (1MB, 64B)",
               baseConfig("swim", Scheme::kCached));

        Table ta("Figure 5(a) - additional loads from memory per L2 miss");
        ta.header({"bench", "c", "naive", "tree depth"});
        Table tb("Figure 5(b) - bandwidth usage (bytes/cycle and "
                 "normalised to base)");
        tb.header({"bench", "base B/cyc", "c B/cyc", "naive B/cyc",
                   "c/base", "naive/base"});

        for (const auto &bench : benches) {
            double extra[2] = {}, bw[3] = {};
            unsigned depth = 0;

            bw[0] = rows.take().bandwidthBytesPerCycle;
            std::uint64_t misses = 0;
            for (int s = 0; s < 2; ++s) {
                const SimResult &r = rows.take();
                extra[s] = r.extraReadsPerMiss;
                bw[s + 1] = r.bandwidthBytesPerCycle;
                if (s == 0)
                    misses = r.l2DemandMisses;
                const SystemConfig cfg = baseConfig(bench, kSchemes[s]);
                depth = TreeLayout(cfg.l2.chunkSize, cfg.l2.protectedSize)
                            .ancestorDepth();
            }

            // Per-miss ratios are noise when there are barely any
            // misses.
            const bool few = misses < 500;
            ta.row({bench, few ? "-" : Table::num(extra[0], 2),
                    Table::num(extra[1], 2), std::to_string(depth)});
            // Ratios are meaningless when the base barely touches DRAM.
            const bool tiny = bw[0] < 0.02;
            tb.row({bench, Table::num(bw[0], 3), Table::num(bw[1], 3),
                    Table::num(bw[2], 3),
                    tiny ? "-" : Table::num(bw[1] / bw[0], 2),
                    tiny ? "-" : Table::num(bw[2] / bw[0], 2)});
        }
        ta.print(os);
        os << "\n";
        tb.print(os);
        os << "\nExpected shape (paper): naive adds ~tree-depth (about 13)\n"
           << "reads per miss; c adds < 1 for every benchmark. Bandwidth\n"
           << "pollution matters mainly for mcf, applu, art, swim.\n";
    };
}

} // namespace cmt::bench
