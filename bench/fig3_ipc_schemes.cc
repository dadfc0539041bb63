/**
 * @file
 * Figure 3 reproduction: IPC of base / c (cached) / naive for six L2
 * configurations - {256 KB, 1 MB, 4 MB} x {64 B, 128 B} - across the
 * nine benchmarks, plus the Section 7 headline summary (worst-case
 * cached overhead; naive's worst slowdown).
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
fig3IpcSchemes(Sweep &sweep, const Options &opt)
{
    static constexpr std::uint64_t kSizes[] = {256 << 10, 1 << 20,
                                               4 << 20};
    static constexpr unsigned kBlocks[] = {64, 128};
    static constexpr Scheme kSchemes[] = {Scheme::kBase, Scheme::kCached,
                                          Scheme::kNaive};

    const auto benches = benchmarks(opt);
    for (const unsigned block : kBlocks) {
        for (const std::uint64_t size : kSizes) {
            for (const auto &bench : benches) {
                for (const Scheme scheme : kSchemes) {
                    SystemConfig cfg = baseConfig(bench, scheme);
                    cfg.l2.sizeBytes = size;
                    cfg.l2.blockSize = block;
                    cfg.l2.chunkSize = block; // c scheme: chunk==block
                    const std::string label =
                        bench + "/" + schemeName(scheme) + "/" +
                        std::to_string(size >> 10) + "K/" +
                        std::to_string(block) + "B";
                    sweep.add(label, cfg);
                }
            }
        }
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Figure 3",
               "IPC of base/c/naive across L2 configurations",
               baseConfig("gcc", Scheme::kCached));

        double worst_cached_overhead = 0;
        std::string worst_cached_at;
        double worst_naive_slowdown = 0;
        std::string worst_naive_at;

        for (const unsigned block : kBlocks) {
            for (const std::uint64_t size : kSizes) {
                Table t("Figure 3 (" + std::to_string(size >> 10) +
                        "KB L2, " + std::to_string(block) +
                        "B blocks) - IPC");
                t.header({"bench", "base", "c", "naive", "c/base",
                          "naive/base"});
                for (const auto &bench : benches) {
                    double ipc[3] = {};
                    for (double &v : ipc)
                        v = rows.take().ipc;
                    t.row({bench, Table::num(ipc[0]), Table::num(ipc[1]),
                           Table::num(ipc[2]),
                           Table::num(ipc[1] / ipc[0], 2),
                           Table::num(ipc[2] / ipc[0], 2)});

                    const std::string at =
                        bench + " @" + std::to_string(size >> 10) +
                        "KB/" + std::to_string(block) + "B";
                    const double overhead = 1.0 - ipc[1] / ipc[0];
                    if (overhead > worst_cached_overhead) {
                        worst_cached_overhead = overhead;
                        worst_cached_at = at;
                    }
                    const double slowdown = ipc[0] / ipc[2];
                    if (slowdown > worst_naive_slowdown) {
                        worst_naive_slowdown = slowdown;
                        worst_naive_at = at;
                    }
                }
                t.print(os);
                os << "\n";
            }
        }

        os << "Section 7 summary\n"
           << "-----------------\n"
           << "worst cached-scheme overhead : "
           << Table::pct(worst_cached_overhead) << " (" << worst_cached_at
           << ")\n"
           << "  paper: < 25% in the worst case; often < 5%\n"
           << "worst naive slowdown         : "
           << Table::num(worst_naive_slowdown, 1) << "x ("
           << worst_naive_at << ")\n"
           << "  paper: up to ~10x (swim, applu)\n";
    };
}

} // namespace cmt::bench
