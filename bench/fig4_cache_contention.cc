/**
 * @file
 * Figure 4 reproduction: L2 miss-rates of *program data* for a
 * standard processor (base) and verification with hash caching (c),
 * for 256 KB and 4 MB caches with 64 B blocks. Shows the cache
 * contention from hashes sharing the L2 - the dominant overhead for
 * twolf, vortex, and vpr at small cache sizes, and its near
 * disappearance at 4 MB.
 */

#include "bench/common.h"
#include "sim/config.h"
#include "support/table.h"
#include "tree/scheme.h"

namespace cmt::bench
{

Renderer
fig4CacheContention(Sweep &sweep, const Options &opt)
{
    static constexpr std::uint64_t kSizes[] = {256 << 10, 4 << 20};
    static constexpr Scheme kSchemes[] = {Scheme::kBase, Scheme::kCached};

    const auto benches = benchmarks(opt);
    for (const std::uint64_t size : kSizes) {
        for (const auto &bench : benches) {
            for (const Scheme scheme : kSchemes) {
                SystemConfig cfg = baseConfig(bench, scheme);
                cfg.l2.sizeBytes = size;
                sweep.add(bench + "/" + schemeName(scheme) + "/" +
                              std::to_string(size >> 10) + "K",
                          cfg);
            }
        }
    }

    return [benches](std::ostream &os, Rows &rows) {
        SystemConfig show = baseConfig("twolf", Scheme::kCached);
        show.l2.sizeBytes = 256 << 10;
        header(os, "Figure 4",
               "L2 data miss-rate: base vs c (hash caching)", show);

        for (const std::uint64_t size : kSizes) {
            Table t("Figure 4 (" + std::to_string(size >> 10) +
                    "KB L2, 64B blocks) - program-data miss-rate");
            t.header({"bench", "base", "c", "delta"});
            for (const auto &bench : benches) {
                const double base = rows.take().l2DataMissRate;
                const double c = rows.take().l2DataMissRate;
                t.row({bench, Table::pct(base), Table::pct(c),
                       Table::pct(c - base)});
            }
            t.print(os);
            os << "\n";
        }

        os << "Expected shape (paper): noticeable miss-rate increase at\n"
           << "256KB (worst for twolf/vortex/vpr); negligible at 4MB.\n";
    };
}

} // namespace cmt::bench
