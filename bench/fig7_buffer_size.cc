/**
 * @file
 * Figure 7 reproduction: effect of the hash read/write buffer size on
 * IPC for the c scheme (1 MB L2, 64 B blocks).
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
fig7BufferSize(Sweep &sweep, const Options &opt)
{
    static constexpr unsigned kSizes[] = {1, 2, 4, 8, 16, 32, 64};

    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        for (const unsigned n : kSizes) {
            SystemConfig cfg = baseConfig(bench, Scheme::kCached);
            cfg.l2.readBufferEntries = n;
            cfg.l2.writeBufferEntries = n;
            sweep.add(bench + "/buf" + std::to_string(n), cfg);
        }
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Figure 7", "IPC vs hash buffer entries (c scheme)",
               baseConfig("swim", Scheme::kCached));

        Table t("Figure 7 - IPC by read/write buffer entries");
        std::vector<std::string> cols{"bench"};
        for (const unsigned n : kSizes)
            cols.push_back(std::to_string(n));
        t.header(std::move(cols));
        for (const auto &bench : benches) {
            std::vector<std::string> row{bench};
            for (std::size_t i = 0; i < std::size(kSizes); ++i)
                row.push_back(Table::num(rows.take().ipc));
            t.row(std::move(row));
        }
        t.print(os);
        os << "\nExpected shape (paper): because hash throughput exceeds\n"
           << "memory bandwidth, the buffer size barely matters beyond a\n"
           << "few entries; only very small buffers serialise misses.\n";
    };
}

} // namespace cmt::bench
