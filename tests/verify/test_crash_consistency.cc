/**
 * @file
 * Crash-consistency tests for the per-shard root persistence format
 * (CMTRTS02). A save interrupted between per-shard root records - or
 * any other torn multi-root state - must be rejected on reload: the
 * trailing payload digest, the shape check and the shard-record
 * ordering check each refuse a different corruption, and none of the
 * torn states may ever reach importRoots and "verify".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/md5.h"
#include "mem/backing_store.h"
#include "support/random.h"
#include "verify/merkle_memory.h"
#include "verify/persistence.h"

namespace cmt
{
namespace
{

struct Paths
{
    explicit Paths(const char *tag)
        : ram(std::string(::testing::TempDir()) + "/cmt_cc_" + tag +
              ".ram"),
          roots(std::string(::testing::TempDir()) + "/cmt_cc_" + tag +
                ".roots")
    {}
    ~Paths()
    {
        std::remove(ram.c_str());
        std::remove(roots.c_str());
    }
    std::string ram;
    std::string roots;
};

MerkleConfig
shardedConfig(unsigned shards = 4)
{
    MerkleConfig cfg;
    cfg.protectedSize = 1 << 18;
    cfg.cacheChunks = 48;
    cfg.shards = shards;
    return cfg;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>());
}

void
spew(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Byte offset of shard @p s's record inside the roots file. */
std::size_t
recordOffset(const MerkleMemory &mm, unsigned s)
{
    const std::size_t record =
        8 + mm.tree().arity() * TreeLayout::kSlotSize;
    return 8 /*magic*/ + 24 /*fingerprint+shards+arity*/ + s * record;
}

/** Populate, persist, and hand back the image/roots files. */
void
populateAndSave(const Paths &p, const MerkleConfig &cfg,
                std::uint64_t seed)
{
    BackingStore ram;
    MerkleMemory mm(ram, cfg);
    Rng rng(seed);
    for (int i = 0; i < 400; ++i)
        mm.store64(8 * rng.below(1 << 15), rng.next());
    saveUntrustedImage(mm, ram, p.ram);
    saveTrustedRoots(mm, p.roots);
}

TEST(CrashConsistencyTest, ShardedSaveReopenRoundTrip)
{
    Paths p("roundtrip");
    std::uint64_t probe = 0;
    {
        BackingStore ram;
        MerkleMemory mm(ram, shardedConfig());
        // One write per shard so every root register is live.
        const std::uint64_t span = mm.size() / 4;
        for (unsigned s = 0; s < 4; ++s)
            mm.store64(s * span + 64, s + 7);
        probe = mm.load64(2 * span + 64);
        saveUntrustedImage(mm, ram, p.ram);
        saveTrustedRoots(mm, p.roots);
    }
    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    loadState(mm, ram, p.ram, p.roots);
    const std::uint64_t span = mm.size() / 4;
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(mm.load64(s * span + 64), s + 7u);
    EXPECT_EQ(probe, 9u);
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

// A crash part-way through the root save leaves a short file: the
// digest (and shape) check must reject it before any root is used.
TEST(CrashConsistencyTest, TruncatedRootFileRejected)
{
    Paths p("truncated");
    populateAndSave(p, shardedConfig(), 11);

    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    const auto bytes = slurp(p.roots);
    // Cut inside shard 2's record: shards 0-1 fully written, the
    // rest lost - exactly a crash between per-shard root writes.
    std::vector<std::uint8_t> torn(
        bytes.begin(),
        bytes.begin() +
            static_cast<std::ptrdiff_t>(recordOffset(mm, 2) + 13));
    spew(p.roots, torn);

    ScopedThrowOnError guard;
    EXPECT_THROW(loadState(mm, ram, p.ram, p.roots), SimError);
}

// Crash between per-shard writes over an existing save: the file
// holds shard 0's new roots and shards 1-3 from the previous epoch.
// The mixed payload no longer matches the trailing digest.
TEST(CrashConsistencyTest, TornMultiRootStateNeverVerifies)
{
    Paths p("torn");
    Paths p_old("torn_old");
    populateAndSave(p_old, shardedConfig(), 21); // epoch A
    populateAndSave(p, shardedConfig(), 22);     // epoch B

    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    auto fresh = slurp(p.roots);
    const auto stale = slurp(p_old.roots);
    ASSERT_EQ(fresh.size(), stale.size());
    // In-place rewrite that died after shard 0's record: the head of
    // the file is epoch B, the tail still epoch A.
    const std::size_t cut = recordOffset(mm, 1);
    std::copy(stale.begin() + static_cast<std::ptrdiff_t>(cut),
              stale.end(),
              fresh.begin() + static_cast<std::ptrdiff_t>(cut));
    spew(p.roots, fresh);

    ScopedThrowOnError guard;
    EXPECT_THROW(loadState(mm, ram, p.ram, p.roots), SimError);
}

// A single flipped payload byte (bit-rot, torn sector) fails the
// digest even when the file length and header fields stay plausible.
TEST(CrashConsistencyTest, FlippedRootByteRejected)
{
    Paths p("bitrot");
    populateAndSave(p, shardedConfig(), 31);

    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    auto bytes = slurp(p.roots);
    bytes[recordOffset(mm, 3) + 20] ^= 0x40;
    spew(p.roots, bytes);

    ScopedThrowOnError guard;
    EXPECT_THROW(loadState(mm, ram, p.ram, p.roots), SimError);
}

// Even a writer that recomputes the digest cannot smuggle in records
// out of shard order: the per-record index check still refuses.
TEST(CrashConsistencyTest, OutOfOrderShardRecordsRejected)
{
    Paths p("reorder");
    populateAndSave(p, shardedConfig(), 41);

    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    auto bytes = slurp(p.roots);
    const std::size_t record =
        8 + mm.tree().arity() * TreeLayout::kSlotSize;
    const std::size_t r1 = recordOffset(mm, 1);
    const std::size_t r2 = recordOffset(mm, 2);
    for (std::size_t i = 0; i < record; ++i)
        std::swap(bytes[r1 + i], bytes[r2 + i]);
    // "Repair" the trailing digest so only the ordering is wrong.
    const std::size_t payload_off = 8;
    const std::size_t payload_len = bytes.size() - payload_off - 16;
    const Hash128 digest = Md5::digest(
        {bytes.data() + payload_off, payload_len});
    std::copy(digest.begin(), digest.end(),
              bytes.end() - static_cast<std::ptrdiff_t>(16));
    spew(p.roots, bytes);

    ScopedThrowOnError guard;
    EXPECT_THROW(loadState(mm, ram, p.ram, p.roots), SimError);
}

/** Disarm the injected save crash even when an assertion fails. */
struct CrashStageGuard
{
    explicit CrashStageGuard(const char *stage)
    {
        setSaveCrashStage(stage);
    }
    ~CrashStageGuard() { setSaveCrashStage(nullptr); }
};

/** Write one recognisable value per shard and persist. */
void
saveEpoch(const Paths &p, std::uint64_t tag)
{
    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    const std::uint64_t span = mm.size() / 4;
    for (unsigned s = 0; s < 4; ++s)
        mm.store64(s * span + 64, tag + s);
    saveUntrustedImage(mm, ram, p.ram);
    saveTrustedRoots(mm, p.roots);
}

/** The files must still hold exactly epoch @p tag. */
void
expectEpochLoads(const Paths &p, std::uint64_t tag)
{
    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    loadState(mm, ram, p.ram, p.roots);
    const std::uint64_t span = mm.size() / 4;
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(mm.load64(s * span + 64), tag + s);
    mm.flush();
    EXPECT_TRUE(mm.verifyAll());
}

// A process killed at any stage of a re-save - while the tmp file is
// still being filled, or with the tmp complete but not yet renamed -
// must leave the previous snapshot loadable and byte-consistent. This
// is the regression test for the old clobber-on-save behaviour, which
// opened the final path with "wb" and destroyed it before the new
// state was durable.
TEST(CrashConsistencyTest, KillMidSaveKeepsPreviousSnapshot)
{
    for (const char *stage :
         {"image-mid-write", "image-pre-rename", "roots-mid-write",
          "roots-pre-rename"}) {
        SCOPED_TRACE(stage);
        Paths p("killmidsave");
        saveEpoch(p, 100); // epoch A, fully durable

        {
            // Epoch B's save dies at the injected stage. Each save
            // call is individually atomic, so the crash is armed for
            // exactly one call: the interrupted file must keep its
            // epoch A content and the other file is never touched.
            BackingStore ram;
            MerkleMemory mm(ram, shardedConfig());
            const std::uint64_t span = mm.size() / 4;
            for (unsigned s = 0; s < 4; ++s)
                mm.store64(s * span + 64, 200 + s);
            ScopedThrowOnError sim_guard;
            CrashStageGuard crash_guard(stage);
            if (std::string(stage).rfind("image", 0) == 0)
                EXPECT_THROW(saveUntrustedImage(mm, ram, p.ram),
                             SimError);
            else
                EXPECT_THROW(saveTrustedRoots(mm, p.roots), SimError);
        }

        expectEpochLoads(p, 100);
    }
}

// A stale .tmp left behind by a crashed save must not poison the next
// successful save: epoch B fully saved over the debris loads as B.
TEST(CrashConsistencyTest, StaleTmpFromCrashedSaveIsHarmless)
{
    Paths p("staletmp");
    saveEpoch(p, 300); // epoch A
    {
        BackingStore ram;
        MerkleMemory mm(ram, shardedConfig());
        mm.store64(64, 999);
        ScopedThrowOnError sim_guard;
        CrashStageGuard crash_guard("roots-pre-rename");
        saveUntrustedImage(mm, ram, p.ram);
        EXPECT_THROW(saveTrustedRoots(mm, p.roots), SimError);
    }
    // The RAM image committed (epoch B's image + epoch A's roots on
    // disk): a torn *pair* like this fails root verification on load,
    // which is exactly the detection the tree exists to provide. A
    // fresh full save then supersedes everything, including the stale
    // roots tmp file.
    saveEpoch(p, 400);
    expectEpochLoads(p, 400);
    std::remove((p.ram + ".tmp").c_str());
    std::remove((p.roots + ".tmp").c_str());
}

// Roots saved under one shard geometry must not load under another:
// the fingerprint folds the shard count.
TEST(CrashConsistencyTest, ShardCountMismatchRejected)
{
    Paths p("geometry");
    populateAndSave(p, shardedConfig(4), 51);

    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig(2));
    ScopedThrowOnError guard;
    EXPECT_THROW(loadState(mm, ram, p.ram, p.roots), SimError);
}

// The image's touched-chunk list is outside input too: an index past
// the tree's end is refused, not marked.
TEST(CrashConsistencyTest, OutOfRangeTouchedChunkRejected)
{
    Paths p("touched_range");
    populateAndSave(p, shardedConfig(), 61);
    auto bytes = slurp(p.ram);
    ASSERT_GE(bytes.size(), 8u);
    // The image ends with the last touched chunk's index.
    std::fill(bytes.end() - 8, bytes.end(), std::uint8_t{0xff});
    spew(p.ram, bytes);

    BackingStore ram;
    MerkleMemory mm(ram, shardedConfig());
    ScopedThrowOnError guard;
    EXPECT_THROW(loadState(mm, ram, p.ram, p.roots), SimError);
}

} // namespace
} // namespace cmt
