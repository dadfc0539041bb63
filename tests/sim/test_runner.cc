/**
 * @file
 * SweepRunner unit tests: parallel/serial equivalence, failure
 * isolation, memoization, and config-fingerprint sensitivity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <utility>

#include "sim/runner.h"
#include "support/logging.h"

namespace cmt
{
namespace
{

/** Small but real simulation windows so runs finish in milliseconds. */
SystemConfig
tinyConfig(const std::string &bench, Scheme scheme)
{
    SystemConfig cfg;
    cfg.benchmark = bench;
    cfg.warmupInstructions = 2'000;
    cfg.measureInstructions = 6'000;
    cfg.l2.scheme = scheme;
    return cfg;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l2DataMissRate, b.l2DataMissRate);
    EXPECT_EQ(a.extraReadsPerMiss, b.extraReadsPerMiss);
    EXPECT_EQ(a.bandwidthBytesPerCycle, b.bandwidthBytesPerCycle);
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses);
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses);
    EXPECT_EQ(a.integrityFailures, b.integrityFailures);
    EXPECT_EQ(a.bufferStalls, b.bufferStalls);
    EXPECT_EQ(a.branchMispredictRate, b.branchMispredictRate);
}

/** A finished sweep's entries and each row's JSON (toJson). */
struct Grid
{
    std::vector<SweepEntry> entries;
    std::vector<std::string> rows;
};

Grid
runGrid(unsigned jobs)
{
    SweepRunner::Options opt;
    opt.jobs = jobs;
    SweepRunner runner(std::move(opt));
    for (const char *bench : {"gcc", "swim", "twolf"}) {
        for (const Scheme scheme :
             {Scheme::kBase, Scheme::kCached, Scheme::kNaive}) {
            runner.add(std::string(bench) + "/" + schemeName(scheme),
                       tinyConfig(bench, scheme));
        }
    }
    Grid grid{runner.run(), {}};
    for (std::size_t i = 0; i < grid.entries.size(); ++i)
        grid.rows.push_back(toJson(runner.job(i), runner.entry(i)).dump());
    return grid;
}

TEST(SweepRunner, ParallelMatchesSerial)
{
    const Grid serial = runGrid(1);
    const Grid parallel = runGrid(4);
    ASSERT_EQ(serial.entries.size(), parallel.entries.size());
    ASSERT_EQ(serial.entries.size(), 9u);
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
        EXPECT_EQ(serial.entries[i].label, parallel.entries[i].label);
        EXPECT_TRUE(serial.entries[i].ok);
        EXPECT_TRUE(parallel.entries[i].ok);
        expectSameResult(serial.entries[i].result,
                         parallel.entries[i].result);
        // The row written to a figure's JSON carries nothing about
        // how the sweep ran, so baselines compare with plain diff.
        EXPECT_EQ(serial.rows[i], parallel.rows[i]);
    }
}

TEST(SweepRunner, ThrowingJobBecomesErrorEntry)
{
    SweepRunner::Options opt;
    opt.jobs = 2;
    opt.simulateFn = [](const SystemConfig &cfg) -> SimResult {
        if (cfg.benchmark == "swim")
            throw std::runtime_error("injected failure");
        SimResult r;
        r.benchmark = cfg.benchmark;
        r.ipc = 1.0;
        return r;
    };
    SweepRunner runner(std::move(opt));
    runner.add("a", tinyConfig("gcc", Scheme::kBase));
    runner.add("b", tinyConfig("swim", Scheme::kBase));
    runner.add("c", tinyConfig("twolf", Scheme::kBase));
    const auto &entries = runner.run();

    ASSERT_EQ(entries.size(), 3u);
    EXPECT_TRUE(entries[0].ok);
    EXPECT_FALSE(entries[1].ok);
    EXPECT_EQ(entries[1].error, "injected failure");
    // The failed row stays identifiable.
    EXPECT_EQ(entries[1].result.benchmark, "swim");
    EXPECT_EQ(entries[1].result.ipc, 0.0);
    EXPECT_TRUE(entries[2].ok);
    EXPECT_EQ(entries[2].result.ipc, 1.0);
}

TEST(SweepRunner, PanicBecomesErrorEntryNotAbort)
{
    SweepRunner::Options opt;
    opt.jobs = 1;
    opt.simulateFn = [](const SystemConfig &cfg) -> SimResult {
        if (cfg.benchmark == "gcc")
            cmt_panic("deadlock at cycle %d", 42);
        return SimResult{};
    };
    SweepRunner runner(std::move(opt));
    runner.add("bad", tinyConfig("gcc", Scheme::kBase));
    runner.add("good", tinyConfig("swim", Scheme::kBase));
    const auto &entries = runner.run();

    EXPECT_FALSE(entries[0].ok);
    EXPECT_NE(entries[0].error.find("deadlock at cycle 42"),
              std::string::npos);
    EXPECT_TRUE(entries[1].ok);
}

TEST(SweepRunner, UnknownBenchmarkIsIsolated)
{
    // profileFor() raises cmt_fatal for unknown names; inside a
    // sweep that must become an error row, not exit(1).
    SweepRunner::Options opt;
    opt.jobs = 1;
    SweepRunner runner(std::move(opt));
    runner.add("bogus", tinyConfig("no-such-benchmark", Scheme::kBase));
    runner.add("real", tinyConfig("gcc", Scheme::kBase));
    const auto &entries = runner.run();

    EXPECT_FALSE(entries[0].ok);
    EXPECT_FALSE(entries[0].error.empty());
    EXPECT_TRUE(entries[1].ok);
    EXPECT_GT(entries[1].result.ipc, 0.0);
}

TEST(SweepRunner, MemoizationRunsDuplicateConfigsOnce)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    SweepRunner::Options opt;
    opt.jobs = 1;
    opt.simulateFn = [calls](const SystemConfig &cfg) {
        calls->fetch_add(1);
        SimResult r;
        r.benchmark = cfg.benchmark;
        r.ipc = 2.5;
        return r;
    };
    SweepRunner runner(std::move(opt));
    const SystemConfig dup = tinyConfig("gcc", Scheme::kCached);
    runner.add("first", dup);
    runner.add("second", dup);
    runner.add("other", tinyConfig("gcc", Scheme::kNaive));
    runner.add("third", dup);
    EXPECT_EQ(runner.uniqueJobs(), 2u);
    const auto &entries = runner.run();

    EXPECT_EQ(calls->load(), 2);
    EXPECT_FALSE(entries[0].memoized);
    EXPECT_TRUE(entries[1].memoized);
    EXPECT_FALSE(entries[2].memoized);
    EXPECT_TRUE(entries[3].memoized);
    // Labels are per-submission even when the result is shared.
    EXPECT_EQ(entries[1].label, "second");
    EXPECT_EQ(entries[3].label, "third");
    expectSameResult(entries[0].result, entries[1].result);
    expectSameResult(entries[0].result, entries[3].result);
    // A follower's row is its leader's but for the label.
    const auto row = [&](std::size_t i, const std::string &label) {
        SweepEntry e = runner.entry(i);
        e.label = label;
        return toJson(runner.job(i), e).dump();
    };
    EXPECT_EQ(row(1, "first"), row(0, "first"));
    EXPECT_EQ(row(3, "first"), row(0, "first"));
}

TEST(SweepRunner, MixRowsMemoizeLikeAnyRow)
{
    // A '+'-joined benchmark is the whole SMP workload, so two rows of
    // the same mix share a key and run once, and each row is exactly
    // the machine System(cfg) builds.
    auto calls = std::make_shared<std::atomic<int>>(0);
    SweepRunner::Options opt;
    opt.jobs = 2;
    opt.simulateFn = [calls](const SystemConfig &cfg) {
        calls->fetch_add(1);
        return simulate(cfg);
    };
    SweepRunner runner(std::move(opt));
    SystemConfig mix = tinyConfig("twolf+gzip", Scheme::kCached);
    mix.l2.protectedSize = 16ULL << 30; // two 4 GB core slices
    runner.add("first", mix);
    runner.add("second", mix);
    EXPECT_EQ(runner.uniqueJobs(), 1u);
    const auto &entries = runner.run();

    EXPECT_EQ(calls->load(), 1);
    EXPECT_TRUE(entries[1].memoized);
    System direct(mix);
    const std::string expected = toJson(direct.run()).dump();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_TRUE(entries[i].ok) << entries[i].error;
        EXPECT_EQ(toJson(runner.job(i), entries[i]).at("result").dump(),
                  expected);
    }
    EXPECT_EQ(entries[0].result.perCoreIpc.size(), 2u);
}

// ---------------------------------------------------------------------
// Fingerprint sensitivity: flipping any field must change the key,
// or stale results would silently be reused as configs grow fields.
// ---------------------------------------------------------------------

using Mutator = void (*)(SystemConfig &);

struct NamedMutator
{
    const char *field;
    Mutator mutate;
};

const NamedMutator kMutators[] = {
    {"benchmark", [](SystemConfig &c) { c.benchmark = "swim"; }},
    // Core i runs program i, so the mix order is part of the key.
    {"benchmark mix order",
     [](SystemConfig &c) { c.benchmark = "gzip+twolf"; }},
    {"seed", [](SystemConfig &c) { c.seed += 1; }},
    {"warmupInstructions",
     [](SystemConfig &c) { c.warmupInstructions += 1; }},
    {"measureInstructions",
     [](SystemConfig &c) { c.measureInstructions += 1; }},

    {"core.fetchWidth", [](SystemConfig &c) { c.core.fetchWidth += 1; }},
    {"core.issueWidth", [](SystemConfig &c) { c.core.issueWidth += 1; }},
    {"core.commitWidth",
     [](SystemConfig &c) { c.core.commitWidth += 1; }},
    {"core.windowSize", [](SystemConfig &c) { c.core.windowSize += 1; }},
    {"core.lsqSize", [](SystemConfig &c) { c.core.lsqSize += 1; }},
    {"core.l1SizeBytes",
     [](SystemConfig &c) { c.core.l1SizeBytes *= 2; }},
    {"core.l1Assoc", [](SystemConfig &c) { c.core.l1Assoc += 1; }},
    {"core.l1BlockSize",
     [](SystemConfig &c) { c.core.l1BlockSize *= 2; }},
    {"core.l1HitLatency",
     [](SystemConfig &c) { c.core.l1HitLatency += 1; }},
    {"core.l1dMshrs", [](SystemConfig &c) { c.core.l1dMshrs += 1; }},
    {"core.aluLatency", [](SystemConfig &c) { c.core.aluLatency += 1; }},
    {"core.mulLatency", [](SystemConfig &c) { c.core.mulLatency += 1; }},
    {"core.fpuLatency", [](SystemConfig &c) { c.core.fpuLatency += 1; }},
    {"core.mispredictPenalty",
     [](SystemConfig &c) { c.core.mispredictPenalty += 1; }},
    {"core.bpredHistoryBits",
     [](SystemConfig &c) { c.core.bpredHistoryBits += 1; }},
    {"core.bpredTableBits",
     [](SystemConfig &c) { c.core.bpredTableBits += 1; }},
    {"core.tlbEntries", [](SystemConfig &c) { c.core.tlbEntries *= 2; }},
    {"core.tlbAssoc", [](SystemConfig &c) { c.core.tlbAssoc += 1; }},
    {"core.tlbMissPenalty",
     [](SystemConfig &c) { c.core.tlbMissPenalty += 1; }},

    {"l2.scheme", [](SystemConfig &c) { c.l2.scheme = Scheme::kNaive; }},
    {"l2.sizeBytes", [](SystemConfig &c) { c.l2.sizeBytes *= 2; }},
    {"l2.assoc", [](SystemConfig &c) { c.l2.assoc *= 2; }},
    {"l2.blockSize", [](SystemConfig &c) { c.l2.blockSize *= 2; }},
    {"l2.chunkSize", [](SystemConfig &c) { c.l2.chunkSize *= 2; }},
    {"l2.protectedSize",
     [](SystemConfig &c) { c.l2.protectedSize *= 2; }},
    {"l2.hitLatency", [](SystemConfig &c) { c.l2.hitLatency += 1; }},
    {"l2.readBufferEntries",
     [](SystemConfig &c) { c.l2.readBufferEntries += 1; }},
    {"l2.writeBufferEntries",
     [](SystemConfig &c) { c.l2.writeBufferEntries += 1; }},
    {"l2.authKind",
     [](SystemConfig &c) {
         c.l2.authKind = Authenticator::Kind::kSha1Trunc;
     }},
    {"l2.timestamps",
     [](SystemConfig &c) { c.l2.timestamps = !c.l2.timestamps; }},
    {"l2.writeAllocNoFetch",
     [](SystemConfig &c) {
         c.l2.writeAllocNoFetch = !c.l2.writeAllocNoFetch;
     }},
    {"l2.speculativeChecks",
     [](SystemConfig &c) {
         c.l2.speculativeChecks = !c.l2.speculativeChecks;
     }},
    {"l2.encryptData",
     [](SystemConfig &c) { c.l2.encryptData = !c.l2.encryptData; }},
    {"l2.decryptLatency",
     [](SystemConfig &c) { c.l2.decryptLatency += 1; }},
    {"l2.key", [](SystemConfig &c) { c.l2.key[7] ^= 0xff; }},

    {"mem.cpuCyclesPerBusCycle",
     [](SystemConfig &c) { c.mem.cpuCyclesPerBusCycle += 1; }},
    {"mem.busWidthBytes",
     [](SystemConfig &c) { c.mem.busWidthBytes *= 2; }},
    {"mem.dramLatency", [](SystemConfig &c) { c.mem.dramLatency += 1; }},

    {"hash.latency", [](SystemConfig &c) { c.hash.latency += 1; }},
    {"hash.throughputBytesPerCycle",
     [](SystemConfig &c) { c.hash.throughputBytesPerCycle *= 2; }},
};

TEST(ConfigFingerprint, StableForEqualConfigs)
{
    const SystemConfig a, b;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
}

/** The config every mutator flips one field of. */
SystemConfig
mutatorBase()
{
    SystemConfig c;
    c.benchmark = "twolf+gzip";
    return c;
}

TEST(ConfigFingerprint, EveryFieldChangesTheKey)
{
    const SystemConfig base = mutatorBase();
    const std::uint64_t ref = configFingerprint(base);
    for (const NamedMutator &m : kMutators) {
        SystemConfig mutated = base;
        m.mutate(mutated);
        EXPECT_NE(configFingerprint(mutated), ref)
            << "fingerprint ignores field " << m.field;
    }
}

TEST(ConfigFingerprint, DistinctFieldFlipsGetDistinctKeys)
{
    // Transposition resistance: each mutated config also differs
    // from every other mutated config (tag-per-field hashing).
    const SystemConfig base = mutatorBase();
    std::vector<std::uint64_t> keys;
    for (const NamedMutator &m : kMutators) {
        SystemConfig mutated = base;
        m.mutate(mutated);
        keys.push_back(configFingerprint(mutated));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j])
                << kMutators[i].field << " collides with "
                << kMutators[j].field;
        }
    }
}

} // namespace
} // namespace cmt
