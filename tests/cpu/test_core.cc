/** @file Out-of-order core unit tests against scripted traces. */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/core.h"
#include "support/random.h"
#include "mem/backing_store.h"
#include "sim/system.h"

namespace cmt
{
namespace
{

/** A trace fed from an explicit list of instructions. */
class ScriptedTrace : public TraceSource
{
  public:
    void
    add(TraceInstr instr)
    {
        instrs_.push_back(instr);
    }

    /** n ALU ops with no dependences. */
    void
    addIndependentAlu(int n)
    {
        for (int i = 0; i < n; ++i) {
            TraceInstr instr;
            instr.type = InstrType::kAlu;
            instr.pc = nextPc();
            add(instr);
        }
    }

    /** PCs loop through a small (I-cache resident) code region. */
    std::uint64_t
    nextPc()
    {
        const std::uint64_t pc = pc_;
        pc_ = (pc_ + 4) % 256;
        return pc;
    }

    bool
    next(TraceInstr &out) override
    {
        if (instrs_.empty())
            return false;
        out = instrs_.front();
        instrs_.pop_front();
        return true;
    }

  private:
    std::deque<TraceInstr> instrs_;
    std::uint64_t pc_ = 0;
};

struct CoreFixture
{
    explicit CoreFixture(const CoreParams &cp = CoreParams{})
        : layout(64, 1 << 20),
          auth(Authenticator::Kind::kMd5, Key128{}, 64),
          ram(store, layout, auth),
          mem(events, ram, MemTimingParams{}, stats),
          hasher(events, HashEngineParams{}, stats),
          l2(events, mem, ram, hasher, layout, auth, l2Params(), stats),
          core(events, l2, trace, cp, stats)
    {}

    static L2Params
    l2Params()
    {
        L2Params p;
        p.scheme = Scheme::kBase;
        p.protectedSize = 1 << 20;
        return p;
    }

    /** Run until the core drains; @return cycles taken. */
    Cycle
    runToCompletion()
    {
        Cycle cycle = events.now();
        while (!core.done()) {
            events.runUntil(cycle);
            core.tick();
            ++cycle;
            cmt_assert(cycle < 10'000'000);
        }
        return cycle;
    }

    EventQueue events;
    StatGroup stats;
    BackingStore store;
    ShardRouter layout;
    Authenticator auth;
    ChunkStore ram;
    MainMemory mem;
    HashEngine hasher;
    L2Controller l2;
    ScriptedTrace trace;
    Core core;
};

TEST(CoreTest, IndependentAluRunsAtFullWidth)
{
    CoreFixture f;
    f.trace.addIndependentAlu(40'000);
    const Cycle cycles = f.runToCompletion();
    EXPECT_EQ(f.core.committed(), 40'000u);
    // Cold I-cache fills bound the first loop pass; steady state is
    // 4-wide.
    const double ipc = 40'000.0 / cycles;
    EXPECT_GT(ipc, 2.5) << "4-wide machine on independent ALU ops";
}

TEST(CoreTest, SerialDependentChainRunsAtIpcOne)
{
    CoreFixture f;
    for (int i = 0; i < 8000; ++i) {
        TraceInstr instr;
        instr.type = InstrType::kAlu;
        instr.pc = f.trace.nextPc();
        instr.srcDist[0] = 1; // depend on the previous instruction
        f.trace.add(instr);
    }
    const Cycle cycles = f.runToCompletion();
    const double ipc = 8000.0 / cycles;
    EXPECT_LT(ipc, 1.1) << "a serial chain cannot beat 1 IPC";
    EXPECT_GT(ipc, 0.7);
}

TEST(CoreTest, MispredictedBranchesCostCycles)
{
    // Random (incompressible) branch outcomes vs always-taken ones.
    auto run = [](bool noisy) {
        CoreFixture f;
        Rng rng(3);
        for (int i = 0; i < 4000; ++i) {
            TraceInstr instr;
            if (i % 4 == 0) {
                instr.type = InstrType::kBranch;
                instr.taken = noisy ? rng.chance(0.5) : false;
            } else {
                instr.type = InstrType::kAlu;
            }
            instr.pc = f.trace.nextPc();
            f.trace.add(instr);
        }
        return f.runToCompletion();
    };
    const Cycle noisy = run(true);
    const Cycle predictable = run(false);
    EXPECT_GT(noisy, predictable + predictable / 4)
        << "unpredictable branches must hurt";
}

TEST(CoreTest, LoadMissStallsDependents)
{
    // A load miss followed by a dependent chain: runtime must include
    // the memory latency.
    CoreFixture f;
    TraceInstr load;
    load.type = InstrType::kLoad;
    load.pc = f.trace.nextPc();
    load.addr = 0x4000;
    f.trace.add(load);
    for (int i = 0; i < 10; ++i) {
        TraceInstr instr;
        instr.type = InstrType::kAlu;
        instr.pc = f.trace.nextPc();
        instr.srcDist[0] = 1;
        f.trace.add(instr);
    }
    const Cycle cycles = f.runToCompletion();
    EXPECT_GT(cycles, 120u) << "DRAM latency must be visible";
    EXPECT_EQ(f.core.stat_l1dMisses.value(), 1u);
}

TEST(CoreTest, L1dCachesRepeatedLoads)
{
    CoreFixture f;
    for (int i = 0; i < 100; ++i) {
        TraceInstr load;
        load.type = InstrType::kLoad;
        load.pc = f.trace.nextPc();
        load.addr = 0x4000; // always the same line
        load.srcDist[0] = static_cast<std::uint8_t>(i > 0);
        f.trace.add(load);
    }
    f.runToCompletion();
    // Serialised by the dependence chain: one real miss, then hits.
    EXPECT_EQ(f.core.stat_l1dMisses.value(), 1u);
    EXPECT_EQ(f.core.stat_l1dHits.value(), 99u);
}

TEST(CoreTest, StoresWriteThroughToL2)
{
    CoreFixture f;
    TraceInstr store;
    store.type = InstrType::kStore;
    store.pc = f.trace.nextPc();
    store.addr = 0x2000;
    store.storeValue = 0xabcdef;
    f.trace.add(store);
    f.runToCompletion();
    // Drain the (classic write-allocate) store fetch, then flush.
    while (!f.events.empty())
        f.events.runUntil(f.events.nextEventTime());
    f.l2.flushAllDirty();
    while (!f.events.empty())
        f.events.runUntil(f.events.nextEventTime());
    std::uint8_t buf[8];
    static_cast<Storage &>(f.ram).read(f.layout.dataToRam(0x2000), buf);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[i];
    EXPECT_EQ(v, 0xabcdefu);
}

TEST(CoreTest, WindowLimitsInFlightInstructions)
{
    // A tiny window on a long dependence-free trace behind one slow
    // load: the window fills and fetch stalls; with a bigger window
    // the same trace finishes faster.
    auto run = [](unsigned window) {
        CoreParams cp;
        cp.windowSize = window;
        CoreFixture f(cp);
        TraceInstr load;
        load.type = InstrType::kLoad;
        load.pc = 0;
        load.addr = 0x8000;
        f.trace.add(load);
        // Everything depends on the load only transitively through
        // commit order (in-order commit keeps the load at the head).
        f.trace.addIndependentAlu(500);
        return f.runToCompletion();
    };
    const Cycle small = run(16);
    const Cycle big = run(128);
    EXPECT_GT(small, big)
        << "a larger RUU must hide more of the miss latency";
}

TEST(CoreTest, CryptoOpsDrainPendingChecks)
{
    // On a tree scheme, a crypto op cannot commit while checks are
    // outstanding; the stall counter must tick.
    CoreParams cp;
    struct TreeFixture
    {
        TreeFixture(const CoreParams &cp)
            : layout(64, 1 << 20),
              auth(Authenticator::Kind::kMd5, Key128{}, 64),
              ram(store, layout, auth),
              mem(events, ram, MemTimingParams{}, stats),
              hasher(events, HashEngineParams{}, stats),
              l2(events, mem, ram, hasher, layout, auth, params(),
                 stats),
              core(events, l2, trace, cp, stats)
        {}
        static L2Params
        params()
        {
            L2Params p;
            p.scheme = Scheme::kCached;
            p.protectedSize = 1 << 20;
            return p;
        }
        EventQueue events;
        StatGroup stats;
        BackingStore store;
        ShardRouter layout;
        Authenticator auth;
        ChunkStore ram;
        MainMemory mem;
        HashEngine hasher;
        L2Controller l2;
        ScriptedTrace trace;
        Core core;
    } f(cp);

    TraceInstr load;
    load.type = InstrType::kLoad;
    load.pc = 0;
    load.addr = 0x4000;
    f.trace.add(load);
    TraceInstr crypto;
    crypto.type = InstrType::kCrypto;
    crypto.pc = 4;
    f.trace.add(crypto);

    Cycle cycle = 0;
    while (!f.core.done()) {
        f.events.runUntil(cycle);
        f.core.tick();
        ++cycle;
        cmt_assert(cycle < 1'000'000);
    }
    EXPECT_GT(f.core.stat_cryptoBarrierStalls.value(), 0u)
        << "the signing barrier must wait for the load's check";
}

TEST(BpredTest, LearnsABiasedBranch)
{
    GsharePredictor bp;
    int correct = 0;
    for (int i = 0; i < 1000; ++i) {
        correct += bp.predict(0x40) == true;
        bp.update(0x40, true);
    }
    EXPECT_GT(correct, 950);
}

TEST(BpredTest, LearnsAnAlternatingPattern)
{
    GsharePredictor bp;
    int correct = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool outcome = i & 1;
        correct += bp.predict(0x80) == outcome;
        bp.update(0x80, outcome);
    }
    // Global history makes alternation learnable.
    EXPECT_GT(correct, 1700);
}

TEST(TlbTest, HitsAfterFill)
{
    StatGroup stats;
    Tlb tlb(128, 4, stats, "t");
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1008)) << "same page";
    EXPECT_FALSE(tlb.access(0x100000));
    EXPECT_EQ(tlb.stat_misses.value(), 2u);
    EXPECT_EQ(tlb.stat_hits.value(), 1u);
}

TEST(TlbTest, CapacityEviction)
{
    StatGroup stats;
    Tlb tlb(8, 2, stats, "t"); // 4 sets x 2 ways
    // Fill one set (pages congruent mod 4) beyond capacity.
    for (std::uint64_t i = 0; i < 3; ++i)
        tlb.access((i * 4) << 12);
    EXPECT_FALSE(tlb.access(0)) << "evicted by the third fill";
}

} // namespace
} // namespace cmt
