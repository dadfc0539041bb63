/**
 * @file
 * Whole-system integration tests: the trace-driven core, caches,
 * integrity machinery, bus and DRAM assembled exactly as the figures
 * use them.
 */

#include <gtest/gtest.h>

#include "cpu/trace.h"
#include "sim/system.h"
#include "trace/specgen.h"

namespace cmt
{
namespace
{

SystemConfig
quickConfig(const std::string &bench, Scheme scheme)
{
    SystemConfig cfg;
    cfg.benchmark = bench;
    cfg.warmupInstructions = 60'000;
    cfg.measureInstructions = 150'000;
    cfg.l2.scheme = scheme;
    return cfg;
}

TEST(SystemTest, RunsToCompletionAndReportsSaneIpc)
{
    const SimResult r = simulate(quickConfig("gzip", Scheme::kBase));
    // Commit width 4: the run may overshoot by up to 3 instructions.
    EXPECT_GE(r.instructions, 150'000u);
    EXPECT_LE(r.instructions, 150'003u);
    EXPECT_GT(r.ipc, 0.2);
    EXPECT_LE(r.ipc, 4.0);
    EXPECT_EQ(r.integrityFailures, 0u);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    const SimResult a = simulate(quickConfig("twolf", Scheme::kCached));
    const SimResult b = simulate(quickConfig("twolf", Scheme::kCached));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(SystemTest, SeedChangesTheRun)
{
    SystemConfig cfg = quickConfig("twolf", Scheme::kBase);
    const SimResult a = simulate(cfg);
    cfg.seed = 99;
    const SimResult b = simulate(cfg);
    EXPECT_NE(a.cycles, b.cycles);
}

class SystemSchemes : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(SystemSchemes, CleanRunHasNoIntegrityFailures)
{
    const SimResult r = simulate(quickConfig("vpr", GetParam()));
    EXPECT_EQ(r.integrityFailures, 0u);
    EXPECT_GT(r.ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SystemSchemes,
    ::testing::Values(Scheme::kBase, Scheme::kNaive, Scheme::kCached,
                      Scheme::kIncremental),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        return schemeName(info.param);
    });

TEST(SystemTest, SchemeOrderingMatchesThePaper)
{
    // The paper's headline: base >= cached >> naive for memory-bound
    // workloads.
    const SimResult base = simulate(quickConfig("swim", Scheme::kBase));
    const SimResult c = simulate(quickConfig("swim", Scheme::kCached));
    const SimResult naive =
        simulate(quickConfig("swim", Scheme::kNaive));

    EXPECT_GT(base.ipc, c.ipc);
    EXPECT_GT(c.ipc, 2.0 * naive.ipc)
        << "caching the hashes must matter enormously for swim";
    EXPECT_GT(base.ipc / naive.ipc, 4.0)
        << "naive must be several times slower on a streaming "
           "benchmark";
}

TEST(SystemTest, CachedKeepsExtraReadsPerMissLow)
{
    // Figure 5a: with hash caching, well under ~2 additional reads
    // per miss; without, about the tree depth.
    const SimResult c = simulate(quickConfig("swim", Scheme::kCached));
    const SimResult naive =
        simulate(quickConfig("swim", Scheme::kNaive));
    EXPECT_LT(c.extraReadsPerMiss, 2.0);
    EXPECT_GT(naive.extraReadsPerMiss, 4.0);
}

TEST(SystemTest, TamperDuringRunIsDetected)
{
    // Corrupt protected RAM mid-run; the background checks must
    // flag it (and the run must not crash).
    SystemConfig cfg = quickConfig("twolf", Scheme::kCached);
    System sys(cfg);

    // Warm up a little, then tamper with a random data chunk that the
    // hot window keeps touching, then continue.
    // We drive the loop in steps to inject mid-run.
    sys.runUntilCommitted(50'000);
    // Flip bits across a swath of the random region's RAM.
    const auto &layout = sys.l2().layout();
    for (std::uint64_t addr = 64ULL << 20;
         addr < (64ULL << 20) + (256 << 10); addr += 4096) {
        std::uint8_t b;
        sys.ram().read(layout.dataToRam(addr), {&b, 1});
        b ^= 0xff;
        sys.ram().write(layout.dataToRam(addr), {&b, 1});
    }
    sys.runUntilCommitted(300'000);
    EXPECT_GT(sys.l2().integrityFailures(), 0u);
}

TEST(SystemTest, BaseSchemeCannotDetectTamper)
{
    SystemConfig cfg = quickConfig("twolf", Scheme::kBase);
    System sys(cfg);
    sys.runUntilCommitted(50'000);
    const auto &layout = sys.l2().layout();
    for (std::uint64_t addr = 64ULL << 20;
         addr < (64ULL << 20) + (64 << 10); addr += 4096) {
        std::uint8_t b;
        sys.ram().read(layout.dataToRam(addr), {&b, 1});
        b ^= 0xff;
        sys.ram().write(layout.dataToRam(addr), {&b, 1});
    }
    sys.runUntilCommitted(200'000);
    EXPECT_EQ(sys.l2().integrityFailures(), 0u);
}

TEST(SystemTest, TreeStateConsistentAfterRun)
{
    for (Scheme scheme :
         {Scheme::kNaive, Scheme::kCached, Scheme::kIncremental}) {
        SystemConfig cfg = quickConfig("vortex", scheme);
        System sys(cfg);
        (void)sys.run();
        sys.l2().flushAllDirty();
        while (!sys.events().empty())
            sys.events().runUntil(sys.events().nextEventTime());
        EXPECT_TRUE(sys.l2().verifyTreeConsistency())
            << schemeName(scheme);
    }
}

TEST(SystemTest, ConfigTablePrints)
{
    SystemConfig cfg;
    std::ostringstream os;
    printConfigTable(os, cfg);
    const std::string out = os.str();
    EXPECT_NE(out.find("L2 cache"), std::string::npos);
    EXPECT_NE(out.find("hash unit"), std::string::npos);
}

TEST(SpecGenTest, AllBenchmarksProduceValidStreams)
{
    for (const auto &name : specBenchmarks()) {
        SpecGen gen(profileFor(name), 3);
        std::uint64_t loads = 0, stores = 0, branches = 0;
        TraceInstr instr;
        for (int i = 0; i < 50'000; ++i) {
            ASSERT_TRUE(gen.next(instr));
            loads += instr.type == InstrType::kLoad;
            stores += instr.type == InstrType::kStore;
            branches += instr.type == InstrType::kBranch;
            if (instr.type == InstrType::kLoad ||
                instr.type == InstrType::kStore) {
                EXPECT_EQ(instr.addr % 8, 0u) << name;
                EXPECT_LT(instr.addr, 4ULL << 30) << name;
            }
        }
        const auto profile = profileFor(name);
        EXPECT_NEAR(loads / 50'000.0, profile.fracLoad, 0.02) << name;
        EXPECT_NEAR(stores / 50'000.0, profile.fracStore, 0.02) << name;
        EXPECT_NEAR(branches / 50'000.0, profile.fracBranch, 0.02)
            << name;
    }
}

TEST(SpecGenTest, DeterministicPerSeed)
{
    SpecGen a(profileFor("mcf"), 7), b(profileFor("mcf"), 7);
    TraceInstr ia, ib;
    for (int i = 0; i < 10'000; ++i) {
        ASSERT_TRUE(a.next(ia));
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.addr, ib.addr);
        ASSERT_EQ(static_cast<int>(ia.type), static_cast<int>(ib.type));
    }
}

TEST(SystemTest, Sha1TruncatedAuthenticatorWorks)
{
    // Section 6.2's alternative digest: truncated SHA-1 tree slots.
    SystemConfig cfg = quickConfig("twolf", Scheme::kCached);
    cfg.l2.authKind = Authenticator::Kind::kSha1Trunc;
    System sys(cfg);
    const SimResult r = sys.run();
    EXPECT_EQ(r.integrityFailures, 0u);
    sys.l2().flushAllDirty();
    while (!sys.events().empty())
        sys.events().runUntil(sys.events().nextEventTime());
    EXPECT_TRUE(sys.l2().verifyTreeConsistency());
}

TEST(SystemTest, PrivacyExtensionEndToEnd)
{
    SystemConfig plain = quickConfig("vortex", Scheme::kCached);
    SystemConfig enc = plain;
    enc.l2.encryptData = true;
    const SimResult a = simulate(plain);
    const SimResult b = simulate(enc);
    EXPECT_LT(b.ipc, a.ipc) << "decrypt latency must cost something";
    EXPECT_GT(b.ipc, a.ipc * 0.5) << "...but not the world";
    EXPECT_EQ(b.integrityFailures, 0u);
}

TEST(OffsetTraceTest, DisplacesAddressesAndPcsOnly)
{
    auto inner = std::make_unique<SpecGen>(profileFor("gzip"), 3);
    SpecGen reference(profileFor("gzip"), 3);
    OffsetTrace shifted(std::move(inner), 1ULL << 32);
    TraceInstr a, b;
    for (int i = 0; i < 20'000; ++i) {
        ASSERT_TRUE(shifted.next(a));
        ASSERT_TRUE(reference.next(b));
        EXPECT_EQ(a.pc, b.pc + (1ULL << 32));
        if (b.type == InstrType::kLoad || b.type == InstrType::kStore)
            EXPECT_EQ(a.addr, b.addr + (1ULL << 32));
        else
            EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.storeValue, b.storeValue);
        EXPECT_EQ(a.taken, b.taken);
    }
}

TEST(SpecGenTest, ChaseLoadsCarryChainDependences)
{
    SpecGen gen(profileFor("mcf"), 5);
    TraceInstr instr;
    int chase_deps = 0, loads = 0;
    for (int i = 0; i < 50'000; ++i) {
        gen.next(instr);
        if (instr.type == InstrType::kLoad) {
            ++loads;
            if (instr.addr >= (1ULL << 30) && instr.addr < (2ULL << 30))
                chase_deps += instr.srcDist[0] != 0;
        }
    }
    EXPECT_GT(chase_deps, loads / 10)
        << "mcf must have a meaningful serialised chase";
}

} // namespace
} // namespace cmt
