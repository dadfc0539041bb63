/**
 * @file
 * Figure 8 reproduction (1 MB L2): the memory-size-overhead schemes.
 *
 *   c-64B  : one hash per 64 B block  (25% RAM overhead)
 *   c-128B : one hash per 128 B block (12.5%, but bigger L2 lines)
 *   m-64B  : one hash per two 64 B blocks (12.5%)
 *   i-64B  : one incremental MAC per two 64 B blocks (12.5%)
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/layout.h"
#include "tree/scheme.h"

namespace cmt::bench
{

namespace
{

struct Variant
{
    const char *name;
    Scheme scheme;
    unsigned blockSize;
    std::uint64_t chunkSize;
};

constexpr Variant kVariants[] = {
    {"c-64B", Scheme::kCached, 64, 64},
    {"c-128B", Scheme::kCached, 128, 128},
    {"m-64B", Scheme::kCached, 64, 128},
    {"i-64B", Scheme::kIncremental, 64, 128},
};

} // namespace

Renderer
fig8ChunkSchemes(Sweep &sweep, const Options &opt)
{
    const auto benches = benchmarks(opt);
    for (const auto &bench : benches) {
        for (const Variant &v : kVariants) {
            SystemConfig cfg = baseConfig(bench, v.scheme);
            cfg.l2.blockSize = v.blockSize;
            cfg.l2.chunkSize = v.chunkSize;
            sweep.add(bench + "/" + v.name, cfg);
        }
    }

    return [benches](std::ostream &os, Rows &rows) {
        header(os, "Figure 8", "m and i schemes with two blocks per chunk",
               baseConfig("swim", Scheme::kCached));

        Table t("Figure 8 - IPC (1MB L2)");
        t.header({"bench", "c-64B", "c-128B", "m-64B", "i-64B"});
        Table o("RAM overhead of each scheme");
        o.header({"scheme", "hash bytes / data byte"});
        bool overhead_done = false;

        for (const auto &bench : benches) {
            std::vector<std::string> row{bench};
            for (const Variant &v : kVariants) {
                row.push_back(Table::num(rows.take().ipc));
                if (!overhead_done) {
                    const TreeLayout layout(
                        v.chunkSize,
                        baseConfig(bench, v.scheme).l2.protectedSize);
                    o.row({v.name,
                           Table::num(static_cast<double>(
                                          layout.hashBytes()) /
                                          layout.dataBytes(),
                                      3)});
                }
            }
            overhead_done = true;
            t.row(std::move(row));
        }
        t.print(os);
        os << "\n";
        o.print(os);
        os << "\nExpected shape (paper): of the reduced-overhead schemes,\n"
           << "c-128B performs best (but costs baseline performance via\n"
           << "larger lines), i-64B beats m-64B and tracks c-64B except\n"
           << "on the highest-bandwidth benchmarks.\n";
    };
}

} // namespace cmt::bench
