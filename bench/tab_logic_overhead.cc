/**
 * @file
 * Section 6.2 reproduction: hash-unit logic overhead.
 *
 * The paper sizes the MD5 and SHA-1 cores by counting 32-bit logic
 * blocks across the rounds, assuming ~1 cycle/round, and concludes
 * the fully-unrolled datapath is on the order of 50,000 one-bit
 * gates - then divides the area by 2-3 by choosing a throughput of
 * one hash per 20 cycles. This table recomputes those counts from the
 * round structure of each algorithm: a figure with no simulation
 * runs, so its table is its only output.
 */

#include "bench/common.h"
#include "support/table.h"

namespace cmt::bench
{

namespace
{

struct LogicCount
{
    const char *unit;
    int md5;
    int sha1;
    /** 1-bit gate-equivalents per 32-bit unit. */
    int gatesPerBit;
};

// MD5: 64 rounds. Per round: 4 additions (F+a, +M[g], +K[i], and the
// post-rotate +b), one F function (a 2:1 mux for rounds 0-31, 2 XORs
// for 32-47, XOR+OR+INV for 48-63), rotation is wiring.
// SHA-1: 80 rounds. Per round: 4 additions (rotl5(a)+f, +e, +k,
// +w[i]) plus the message schedule (3 XORs per round from 16 on),
// f = mux (0-19), 2 XORs (20-39, 60-79), majority (40-59).
constexpr LogicCount kCounts[] = {
    // unit           md5  sha1  gates/bit
    {"32-bit adders", 256, 320, 28},
    {"multiplexers", 32, 20, 3},
    {"inverters", 16, 0, 1},
    {"and gates", 0, 40, 1},
    {"or gates", 16, 20, 1},
    {"xor gates", 48, 232, 3},
};

} // namespace

Renderer
tabLogicOverhead(Sweep &, const Options &)
{
    return [](std::ostream &os, Rows &) {
        os << "Section 6.2: hash logic overhead (recomputed from the\n"
           << "round structure; compare with the paper's estimate of\n"
           << "~50k 1-bit gates before round sharing)\n\n";

        Table t("32-bit logic blocks across all rounds");
        t.header({"unit", "MD5 (64 rounds)", "SHA-1 (80 rounds)"});
        long md5_gates = 0, sha1_gates = 0;
        for (const auto &c : kCounts) {
            t.row({c.unit, std::to_string(c.md5), std::to_string(c.sha1)});
            md5_gates += static_cast<long>(c.md5) * 32 * c.gatesPerBit;
            sha1_gates += static_cast<long>(c.sha1) * 32 * c.gatesPerBit;
        }
        t.print(os);

        Table g("Estimated 1-bit gate counts");
        g.header({"configuration", "MD5", "SHA-1"});
        g.row({"fully unrolled", std::to_string(md5_gates),
               std::to_string(sha1_gates)});
        g.row({"shared rounds (1 hash / 20 cyc)",
               std::to_string(md5_gates / 3),
               std::to_string(sha1_gates / 3)});
        os << "\n";
        g.print(os);

        os << "\nPaper: 'on the order of 50,000 1-bit gates altogether',\n"
           << "divided by 2-3 via round sharing at one hash per 20\n"
           << "cycles (3.2 GB/s at 1 GHz).\n";
    };
}

} // namespace cmt::bench
