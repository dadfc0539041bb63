/**
 * @file
 * Direct per-policy unit tests: each IntegrityPolicy implementation
 * is driven through a bare L2Controller (no System, no core) against
 * a tampering Adversary, plus a cross-scheme stat-invariant check and
 * a PolicyFactory injection test. These are the first tests that can
 * talk about one scheme's policy in isolation - before the layering,
 * every scheme path hid inside the SecureL2 monolith.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "mem/backing_store.h"
#include "support/random.h"
#include "tree/integrity_policy.h"
#include "tree/l2_controller.h"
#include "tree/naive_policy.h"
#include "verify/adversary.h"

namespace cmt
{
namespace
{

struct PolicyFixture
{
    explicit PolicyFixture(Scheme scheme, std::uint64_t l2_size = 4096,
                           unsigned assoc = 4,
                           std::uint64_t chunk_size = 64,
                           unsigned block_size = 64,
                           PolicyFactory factory = {},
                           unsigned shards = 1,
                           std::optional<Authenticator::Kind> kind = {})
        : tree(chunk_size, 4ULL << 30, shards),
          auth(kind.value_or(scheme == Scheme::kIncremental
                                 ? Authenticator::Kind::kXorMac
                                 : Authenticator::Kind::kMd5),
               key(), block_size),
          ram(base, tree, auth),
          mem(events, ram, MemTimingParams{}, stats),
          hasher(events, HashEngineParams{}, stats, shards),
          l2(events, mem, ram, hasher, tree, auth,
             params(scheme, l2_size, assoc, chunk_size, block_size,
                    shards),
             stats, std::move(factory))
    {}

    static Key128
    key()
    {
        Key128 k;
        k.fill(0x42);
        return k;
    }

    static L2Params
    params(Scheme scheme, std::uint64_t l2_size, unsigned assoc,
           std::uint64_t chunk_size, unsigned block_size,
           unsigned shards = 1)
    {
        L2Params p;
        p.scheme = scheme;
        p.sizeBytes = l2_size;
        p.assoc = assoc;
        p.blockSize = block_size;
        p.chunkSize = chunk_size;
        p.protectedSize = 4ULL << 30;
        p.shards = shards;
        p.key = key();
        return p;
    }

    void
    drain()
    {
        while (!events.empty())
            events.runUntil(events.nextEventTime());
    }

    void
    write64(std::uint64_t addr, std::uint64_t value)
    {
        std::uint8_t buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
        l2.write(addr, buf);
    }

    void
    readWait(std::uint64_t addr)
    {
        bool done = false;
        l2.read(addr, 8, [&] { done = true; });
        while (!done) {
            cmt_assert(!events.empty());
            events.runUntil(events.nextEventTime());
        }
    }

    std::uint64_t
    ramData64(std::uint64_t addr)
    {
        std::uint8_t buf[8];
        static_cast<Storage &>(ram).read(layout.dataToRam(addr), buf);
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | buf[i];
        return v;
    }

    std::uint64_t
    leafOf(std::uint64_t addr) const
    {
        return layout.chunkOf(layout.dataToRam(addr));
    }

    /** A data address in another leaf chunk under the same parent
     *  as @p addr's. */
    std::uint64_t
    siblingOf(std::uint64_t addr, unsigned nth = 1) const
    {
        const std::uint64_t leaf = leafOf(addr);
        for (std::uint64_t a = 0;; a += 64) {
            const std::uint64_t c = leafOf(a);
            if (c != leaf && layout.parentOf(c) == layout.parentOf(leaf) &&
                --nth == 0)
                return a;
        }
    }

    /** Evict everything by streaming reads through a far region. */
    void
    thrash()
    {
        const std::uint64_t far = 3ULL << 30;
        const unsigned lines = static_cast<unsigned>(
            l2.params().sizeBytes / l2.params().blockSize);
        for (unsigned i = 0; i < 4 * lines; ++i)
            readWait(far + i * l2.params().blockSize);
        drain();
    }

    EventQueue events;
    StatGroup stats;
    BackingStore base;
    ShardRouter tree;
    /** Global geometry view; identical to the old single TreeLayout
     *  when shards == 1. */
    const ShardRouter &layout{tree};
    Authenticator auth;
    ChunkStore ram;
    MainMemory mem;
    HashEngine hasher;
    L2Controller l2;
};

struct PolicyCase
{
    Scheme scheme;
    std::uint64_t chunkSize;
    unsigned blockSize;
    const char *name;
};

class TamperingAdversary : public ::testing::TestWithParam<PolicyCase>
{
};

// Every verifying policy must catch a spoofed RAM image on the very
// first demand fetch: the adversary corrupts a virgin data chunk and
// the policy's ancestor walk / chunk check flags it against the
// canonical tree state.
TEST_P(TamperingAdversary, SpoofedDataChunkIsDetected)
{
    const PolicyCase &pc = GetParam();
    PolicyFixture f(pc.scheme, 4096, 4, pc.chunkSize, pc.blockSize);
    Adversary mallory(f.ram);

    const std::uint64_t addr = 8 * 5;
    mallory.flipBit(f.layout.dataToRam(addr), 3);

    f.readWait(addr);
    f.drain();

    EXPECT_GE(f.l2.integrityFailures(), 1u) << pc.name;
    EXPECT_GE(f.l2.stat_checks.value(), 1u) << pc.name;
}

// DRAM reads are timing only: each policy samples RAM when the data
// arrives. A bit flipped while the miss is on the bus - after the
// reads are issued, before their data arrives - must still be caught.
TEST_P(TamperingAdversary, TamperWhileMissInFlightIsDetected)
{
    const PolicyCase &pc = GetParam();
    PolicyFixture f(pc.scheme, 4096, 4, pc.chunkSize, pc.blockSize);
    Adversary mallory(f.ram);

    const std::uint64_t addr = 8 * 5;
    bool done = false;
    f.l2.read(addr, 8, [&] { done = true; });
    // Run to the cycle the miss's DRAM reads go out; their data
    // arrives a DRAM latency later.
    while (f.mem.stat_reads.value() == 0) {
        ASSERT_FALSE(f.events.empty());
        f.events.runUntil(f.events.nextEventTime());
    }
    ASSERT_FALSE(done);
    ASSERT_EQ(f.l2.stat_checks.value(), 0u);

    mallory.flipBit(f.layout.dataToRam(addr), 3);
    f.drain();

    EXPECT_TRUE(done) << pc.name;
    EXPECT_GE(f.l2.integrityFailures(), 1u) << pc.name;
}

// Freshness: replaying a stale-but-authentic chunk image must fail
// against the updated parent, for every verifying policy.
TEST_P(TamperingAdversary, ReplayedStaleChunkIsDetected)
{
    const PolicyCase &pc = GetParam();
    PolicyFixture f(pc.scheme, 2048, 2, pc.chunkSize, pc.blockSize);
    Adversary mallory(f.ram);

    const std::uint64_t addr = 8 * 3;
    const std::uint64_t chunk_base =
        f.layout.chunkAddr(f.layout.chunkOf(f.layout.dataToRam(addr)));

    f.write64(addr, 0x1111'2222'3333'4444ull);
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    const auto stale = mallory.capture(chunk_base, pc.chunkSize);

    f.write64(addr, 0x5555'6666'7777'8888ull);
    f.drain();
    f.l2.flushAllDirty();
    f.drain();

    // Push the chunk (and its ancestors) out of the L2 so the replay
    // is actually re-fetched and re-verified.
    f.thrash();
    const std::uint64_t before = f.l2.integrityFailures();
    mallory.replay(chunk_base, stale);

    f.readWait(addr);
    f.drain();

    EXPECT_GT(f.l2.integrityFailures(), before) << pc.name;
}

// A write-back rebuilds authenticators from RAM, so it must not hash
// unchecked RAM into the tree. The adversary replaces a sibling chunk
// and sets the parent's slot for it to the new bytes' digest; the
// parent no longer matches its own slot. A write-back under the same
// parent that hits in the L2 (so no miss checks anything) must report
// that, rather than rebuild the tampered parent into the root, after
// which the forged sibling verifies.
TEST_P(TamperingAdversary, WriteBackDoesNotLaunderATamperedSibling)
{
    const PolicyCase &pc = GetParam();
    if (pc.scheme == Scheme::kCached)
        GTEST_SKIP() << "known leak: the c/m write-back merges the "
                        "words a line lacks from RAM unchecked "
                        "(CachedTreePolicy::evictDirty)";
    PolicyFixture f(pc.scheme, 4096, 4, pc.chunkSize, pc.blockSize);
    Adversary mallory(f.ram);
    const std::uint64_t addr = 0;
    const std::uint64_t sibling = f.leafOf(f.siblingOf(addr));
    const auto parent = static_cast<std::uint64_t>(
        f.layout.parentOf(f.leafOf(addr)));

    f.write64(addr, 0x1111'2222'3333'4444ull);
    f.drain();
    f.l2.flushAllDirty();
    f.drain();

    const std::vector<std::uint8_t> forged(pc.chunkSize, 0x5a);
    mallory.overwrite(f.layout.chunkAddr(sibling), forged);
    mallory.overwrite(
        f.layout.slotAddr(parent, f.layout.slotIndexOf(sibling)),
        f.auth.compute(forged, Slot{}));

    f.write64(addr, 0x5555'6666'7777'8888ull);
    f.drain();
    f.l2.flushAllDirty();
    f.drain();
    f.thrash();
    f.readWait(f.siblingOf(addr));
    f.drain();

    EXPECT_GE(f.l2.integrityFailures(), 1u) << pc.name;
}

// Shard isolation: with K independent subtrees, tampering inside
// shard i's region must be detected the moment shard i is touched,
// while every other shard keeps verifying clean - the failure domain
// is one subtree, not the whole protected space.
TEST_P(TamperingAdversary, TamperedShardDetectedWhileOthersVerifyClean)
{
    const PolicyCase &pc = GetParam();
    constexpr unsigned kShards = 4;
    constexpr unsigned kVictimShard = 2;
    PolicyFixture f(pc.scheme, 4096, 4, pc.chunkSize, pc.blockSize, {},
                    kShards);
    Adversary mallory(f.ram);

    const std::uint64_t per_shard = f.tree.dataBytes() / kShards;
    const std::uint64_t victim_addr = kVictimShard * per_shard + 8 * 5;
    ASSERT_EQ(f.tree.shardOfData(victim_addr), kVictimShard);
    mallory.flipBit(f.tree.dataToRam(victim_addr), 3);

    // Every clean shard verifies clean, before and after.
    for (unsigned s = 0; s < kShards; ++s) {
        if (s == kVictimShard)
            continue;
        f.readWait(s * per_shard + 8 * 7);
    }
    f.drain();
    EXPECT_EQ(f.l2.integrityFailures(), 0u) << pc.name;

    // The tampered shard is caught on its first demand fetch.
    f.readWait(victim_addr);
    f.drain();
    EXPECT_GE(f.l2.integrityFailures(), 1u) << pc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TamperingAdversary,
    ::testing::Values(PolicyCase{Scheme::kNaive, 64, 64, "naive"},
                      PolicyCase{Scheme::kCached, 64, 64, "c"},
                      PolicyCase{Scheme::kCached, 128, 64, "m"},
                      PolicyCase{Scheme::kIncremental, 64, 64, "i"},
                      PolicyCase{Scheme::kIncremental, 128, 64,
                                 "i_two_block"}),
    [](const ::testing::TestParamInfo<PolicyCase> &info) {
        return info.param.name;
    });

// The naive scheme's digest memo: a miss-path level reuses a stored
// slot only when the chunk's current image is byte-for-byte the image
// that slot was computed from, so a changed chunk is always digested
// again and its verdict is the one a full recompute would give.
struct NaiveMemoFixture : PolicyFixture
{
    explicit NaiveMemoFixture(
        Authenticator::Kind kind = Authenticator::Kind::kMd5)
        : PolicyFixture(Scheme::kNaive, 4096, 4, 64, 64, {}, 1, kind)
    {}

    std::uint64_t
    reused() const
    {
        return stats.counterValue("naive.host_digests_reused");
    }

    std::uint64_t
    computed() const
    {
        return stats.counterValue("naive.host_digests");
    }
};

TEST(NaiveMemoTest, TamperedMemoizedAncestorIsDetected)
{
    NaiveMemoFixture f;
    Adversary mallory(f.ram);
    const std::uint64_t a = 0;
    const std::uint64_t b = f.siblingOf(a, 1);
    const std::uint64_t c = f.siblingOf(a, 2);

    // Miss A verifies and memoizes the whole path; miss B shares
    // every ancestor and takes each of them from the memo.
    f.readWait(a);
    f.drain();
    const std::uint64_t reused_before_b = f.reused();
    f.readWait(b);
    f.drain();
    ASSERT_EQ(f.l2.integrityFailures(), 0u);
    ASSERT_GE(f.reused() - reused_before_b, f.layout.ancestorDepth());

    // One flipped bit in the shared parent, inside A's slot so C's own
    // slot still matches: miss C must digest the parent afresh and
    // fail against the grandparent's slot.
    const std::uint64_t leaf_a = f.leafOf(a);
    const auto parent = static_cast<std::uint64_t>(f.layout.parentOf(leaf_a));
    mallory.flipBit(
        f.layout.slotAddr(parent, f.layout.slotIndexOf(leaf_a)), 0);
    f.readWait(c);
    f.drain();
    EXPECT_GE(f.l2.integrityFailures(), 1u);
}

TEST(NaiveMemoTest, ReplayedImageAndSlotOfMemoizedChunkIsDetected)
{
    NaiveMemoFixture f;
    Adversary mallory(f.ram);
    const std::uint64_t addr = 8 * 3;
    const std::uint64_t leaf = f.leafOf(addr);
    const auto parent =
        static_cast<std::uint64_t>(f.layout.parentOf(leaf));
    const std::uint64_t slot_addr =
        f.layout.slotAddr(parent, f.layout.slotIndexOf(leaf));

    // Image 1 and the slot that authenticates it.
    f.write64(addr, 0x1111'2222'3333'4444ull);
    f.l2.flushAllDirty();
    f.drain();
    const auto old_image =
        mallory.capture(f.layout.chunkAddr(leaf), 64);
    const auto old_slot = mallory.capture(slot_addr, 16);

    // Image 2 is written back, then verified by a miss, so the memo
    // holds the chunk's current path.
    f.write64(addr, 0x5555'6666'7777'8888ull);
    f.l2.flushAllDirty();
    f.drain();
    f.thrash();
    f.readWait(addr);
    f.drain();
    f.thrash();
    ASSERT_EQ(f.l2.integrityFailures(), 0u);
    ASSERT_GT(f.reused(), 0u);

    // Restore the older, once-authentic image and slot pair. The leaf
    // then matches its replayed slot; the parent's image no longer
    // equals its memoized image, so it is digested and fails against
    // the grandparent.
    mallory.replay(f.layout.chunkAddr(leaf), old_image);
    mallory.replay(slot_addr, old_slot);
    f.readWait(addr);
    f.drain();
    EXPECT_GE(f.l2.integrityFailures(), 1u);
}

TEST(NaiveMemoTest, EntryCountFitsTheByteBudget)
{
    // 64 B chunks keep the full 1024 entries; 64 KiB chunks get four,
    // so the image table stays at 256 KiB instead of 64 MiB.
    EXPECT_EQ(NaivePolicy::digestMemoEntries(64), 1024u);
    EXPECT_EQ(NaivePolicy::digestMemoEntries(256), 1024u);
    EXPECT_EQ(NaivePolicy::digestMemoEntries(512), 512u);
    EXPECT_EQ(NaivePolicy::digestMemoEntries(65536), 4u);
    EXPECT_EQ(NaivePolicy::digestMemoEntries(1 << 20), 1u);
}

TEST(NaiveMemoTest, XorMacSlotsNeverTakeTheMemo)
{
    // The same repeated-path workload reuses memoized digests under
    // MD5 and truncated SHA-1, while an XOR-MAC slot (which folds in
    // timestamp bits) is always computed by the authenticator.
    for (const auto kind :
         {Authenticator::Kind::kMd5, Authenticator::Kind::kSha1Trunc,
          Authenticator::Kind::kXorMac}) {
        NaiveMemoFixture f(kind);
        for (unsigned round = 0; round < 2; ++round) {
            for (unsigned i = 0; i < 8; ++i) {
                f.write64(64 * i, round * 100 + i);
                f.readWait(64 * i + 4096);
            }
            f.l2.flushAllDirty();
            f.drain();
            f.thrash();
        }
        EXPECT_EQ(f.l2.integrityFailures(), 0u);
        EXPECT_TRUE(f.l2.verifyTreeConsistency());
        EXPECT_GT(f.computed(), 0u);
        if (kind == Authenticator::Kind::kXorMac)
            EXPECT_EQ(f.reused(), 0u);
        else
            EXPECT_GT(f.reused(), 0u);
    }
}

// NullPolicy is the paper's insecure baseline: it must run the same
// cache machinery but never check anything - tampering sails through.
TEST(NullPolicyTest, BaseSchemeIsBlindToTampering)
{
    PolicyFixture f(Scheme::kBase);
    Adversary mallory(f.ram);

    const std::uint64_t addr = 8 * 5;
    mallory.flipBit(f.layout.dataToRam(addr), 3);

    f.readWait(addr);
    f.drain();

    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_EQ(f.l2.stat_checks.value(), 0u);
    EXPECT_EQ(f.l2.stat_integrityBlockReads.value(), 0u);
    EXPECT_EQ(f.l2.pendingChecks(), 0u);
}

// A policy injected through the PolicyFactory seam sees every demand
// miss and dirty eviction the controller dispatches; delegation to
// the real policy keeps behaviour (and the tree) intact.
class CountingPolicy final : public IntegrityPolicy
{
  public:
    struct Counts
    {
        Scheme scheme = Scheme::kBase;
        unsigned misses = 0;
        unsigned evictions = 0;
    };

    CountingPolicy(Scheme scheme, L2Controller &l2, Counts *counts)
        : IntegrityPolicy(l2), inner_(makeIntegrityPolicy(scheme, l2)),
          counts_(counts)
    {
        counts_->scheme = scheme;
    }

    void
    startDemandMiss(std::uint64_t block_addr) override
    {
        ++counts_->misses;
        inner_->startDemandMiss(block_addr);
    }

    void
    evictDirty(const CacheArray::Victim &victim) override
    {
        ++counts_->evictions;
        inner_->evictDirty(victim);
    }

    bool
    storeMissAllocatesWithoutFetch(std::uint64_t ram_addr) const
        override
    {
        return inner_->storeMissAllocatesWithoutFetch(ram_addr);
    }

    bool
    verifiesIntegrity() const override
    {
        return inner_->verifiesIntegrity();
    }

  private:
    std::unique_ptr<IntegrityPolicy> inner_;
    Counts *counts_;
};

TEST(PolicyFactoryTest, InjectedPolicyObservesMissesAndEvictions)
{
    CountingPolicy::Counts counts;
    PolicyFixture f(Scheme::kCached, 1024, 2, 64, 64,
                    [&counts](Scheme s, L2Controller &l2) {
                        return std::make_unique<CountingPolicy>(
                            s, l2, &counts);
                    });
    EXPECT_EQ(counts.scheme, Scheme::kCached);

    Rng rng(11);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 400; ++op) {
        const std::uint64_t addr = 8 * rng.below(512);
        if (rng.chance(0.5)) {
            const std::uint64_t v = rng.next();
            f.write64(addr, v);
            reference[addr] = v;
        } else {
            f.readWait(addr);
        }
    }
    f.drain();
    // Capacity evictions route through the counting seam one-for-one;
    // flushAllDirty also dispatches to evictDirty() but is bookkeeping
    // rather than an eviction, so compare before flushing.
    EXPECT_GT(counts.misses, 0u);
    EXPECT_GT(counts.evictions, 0u);
    EXPECT_EQ(counts.evictions, f.l2.stat_evictionsDirty.value());
    f.l2.flushAllDirty();
    f.drain();

    EXPECT_EQ(f.l2.integrityFailures(), 0u);
    EXPECT_TRUE(f.l2.verifyTreeConsistency());
    for (const auto &[addr, value] : reference)
        ASSERT_EQ(f.ramData64(addr), value);
}

// Cross-scheme invariants over one identical workload: the demand
// stream is scheme-independent, checking only ever adds RAM traffic,
// the base scheme never checks, and every scheme converges on the
// same functional memory image.
TEST(CrossSchemeTest, StatInvariantsOverIdenticalWorkload)
{
    const Scheme schemes[] = {Scheme::kBase, Scheme::kNaive,
                              Scheme::kCached, Scheme::kIncremental};
    struct Outcome
    {
        std::uint64_t reads, writes, checks, failures;
        std::uint64_t demandReads, integrityReads;
    };
    std::map<Scheme, Outcome> out;
    std::map<std::uint64_t, std::uint64_t> reference;

    for (const Scheme scheme : schemes) {
        PolicyFixture f(scheme);
        Rng rng(99);
        reference.clear();
        for (int op = 0; op < 600; ++op) {
            const std::uint64_t region = op % 3 ? 0 : (1ULL << 30);
            const std::uint64_t addr = region + 8 * rng.below(512);
            if (rng.chance(0.5)) {
                const std::uint64_t v = rng.next();
                f.write64(addr, v);
                reference[addr] = v;
            } else {
                f.readWait(addr);
            }
            if (op % 128 == 0)
                f.drain();
        }
        f.drain();
        f.l2.flushAllDirty();
        f.drain();

        out[scheme] = Outcome{
            f.l2.stat_reads.value(), f.l2.stat_writes.value(),
            f.l2.stat_checks.value(), f.l2.stat_checkFailures.value(),
            f.l2.stat_demandBlockReads.value(),
            f.l2.stat_integrityBlockReads.value()};
        if (scheme != Scheme::kBase) {
            EXPECT_TRUE(f.l2.verifyTreeConsistency())
                << schemeName(scheme);
        }
        // Identical functional image whatever the scheme.
        for (const auto &[addr, value] : reference)
            ASSERT_EQ(f.ramData64(addr), value) << schemeName(scheme);
    }

    // The demand stream the core issued is scheme-independent.
    for (const Scheme scheme : schemes) {
        EXPECT_EQ(out[scheme].reads, out[Scheme::kBase].reads)
            << schemeName(scheme);
        EXPECT_EQ(out[scheme].writes, out[Scheme::kBase].writes)
            << schemeName(scheme);
        EXPECT_EQ(out[scheme].failures, 0u) << schemeName(scheme);
    }
    // Base never checks and adds no integrity traffic; every tree
    // scheme checks at least once.
    EXPECT_EQ(out[Scheme::kBase].checks, 0u);
    EXPECT_EQ(out[Scheme::kBase].integrityReads, 0u);
    for (const Scheme scheme :
         {Scheme::kNaive, Scheme::kCached, Scheme::kIncremental})
        EXPECT_GT(out[scheme].checks, 0u) << schemeName(scheme);
    // Checking only adds memory traffic: the naive full-path walk
    // reads at least as much RAM as the base scheme's demand misses.
    const auto total = [](const Outcome &o) {
        return o.demandReads + o.integrityReads;
    };
    EXPECT_LE(total(out[Scheme::kBase]), total(out[Scheme::kNaive]));
}

} // namespace
} // namespace cmt
