/**
 * @file
 * Ablation (Section 5.1): tree arity / chunk size trade-off.
 *
 * An m-ary tree costs 1/(m-1) extra memory and log_m(N) checks per
 * cold path. Sweeping the chunk size (with the m scheme keeping
 * 64-byte L2 blocks) shows the depth-vs-overhead trade the paper
 * quantifies analytically.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/layout.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
ablArity(Sweep &sweep, const Options &opt)
{
    static constexpr std::uint64_t kChunks[] = {64, 128, 256};

    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        for (const std::uint64_t chunk : kChunks) {
            SystemConfig cfg = baseConfig(bench, Scheme::kCached);
            cfg.l2.chunkSize = chunk;
            sweep.add(bench + "/chunk" + std::to_string(chunk), cfg);
        }
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Ablation", "chunk size / tree arity sweep (m scheme)",
               baseConfig("swim", Scheme::kCached));

        Table g("Tree geometry per chunk size (4GB protected)");
        g.header({"chunk", "arity", "depth", "RAM overhead"});
        for (const std::uint64_t chunk : kChunks) {
            const TreeLayout layout(chunk, 4ULL << 30);
            g.row({std::to_string(chunk) + "B",
                   std::to_string(layout.arity()),
                   std::to_string(layout.ancestorDepth()),
                   Table::pct(static_cast<double>(layout.hashBytes()) /
                              layout.dataBytes())});
        }
        g.print(os);
        os << "\n";

        Table t("IPC by chunk size (64B blocks, cached scheme)");
        t.header({"bench", "64B", "128B", "256B"});
        for (const auto &bench : benches) {
            std::vector<std::string> row{bench};
            for (std::size_t i = 0; i < std::size(kChunks); ++i)
                row.push_back(Table::num(rows.take().ipc));
            t.row(std::move(row));
        }
        t.print(os);
        os << "\nLarger chunks: fewer tree levels and less RAM overhead,\n"
           << "but every miss moves and hashes more data and write-backs\n"
           << "involve whole chunks - the Section 6.7 tension.\n";
    };
}

} // namespace cmt::bench
