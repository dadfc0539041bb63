/**
 * @file
 * Drive the full cycle-level secure processor, tamper with DRAM in
 * the middle of the run, and watch the background checks (Section
 * 5.8: speculative, imprecise) catch it while the pipeline keeps
 * moving.
 *
 *   $ ./tamper_detect_sim [benchmark]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "sim/system.h"

using namespace cmt;

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.benchmark = argc > 1 ? argv[1] : "twolf";
    cfg.warmupInstructions = 0;
    cfg.measureInstructions = 400'000;
    cfg.l2.scheme = Scheme::kCached;

    System system(cfg);
    printConfigTable(std::cout, cfg);

    std::printf("\nphase 1: %s runs cleanly...\n",
                cfg.benchmark.c_str());
    system.runUntilCommitted(150'000);
    std::printf("  %llu instructions, %llu cycles, checks so far "
                "failed: %llu\n",
                static_cast<unsigned long long>(
                    system.core().committed()),
                static_cast<unsigned long long>(system.cycle()),
                static_cast<unsigned long long>(
                    system.l2().integrityFailures()));

    std::printf("phase 2: adversary rewrites 64KB of DRAM at cycle "
                "%llu...\n",
                static_cast<unsigned long long>(system.cycle()));
    const auto &layout = system.l2().layout();
    for (std::uint64_t addr = 64ULL << 20;
         addr < (64ULL << 20) + (64 << 10); addr += 64) {
        std::uint8_t poison[8] = {0xDE, 0xAD, 0xBE, 0xEF};
        system.ram().write(layout.dataToRam(addr), poison);
    }

    std::printf("phase 3: execution continues; checks complete in the "
                "background...\n");
    system.runUntilCommitted(400'000);

    const auto failures = system.l2().integrityFailures();
    std::printf("\nresult: %llu integrity exception(s) raised.\n",
                static_cast<unsigned long long>(failures));
    std::printf("%s\n",
                failures > 0
                    ? "The processor would abort the task and destroy "
                      "its signing key\n(Section 5.8): no certificate "
                      "for tampered execution can exist."
                    : "No tampered line was touched this run - rerun "
                      "with another benchmark.");
    return failures > 0 ? 0 : 1;
}
