/** @file Persistence layer tests: save/reopen/verify/offline-tamper. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

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
        : ram(std::string(::testing::TempDir()) + "/cmt_" + tag +
              ".ram"),
          roots(std::string(::testing::TempDir()) + "/cmt_" + tag +
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
config()
{
    MerkleConfig cfg;
    cfg.protectedSize = 1 << 18;
    cfg.cacheChunks = 48;
    return cfg;
}

namespace
{

/**
 * Offline attacker with knowledge of the image format: locate the
 * page record holding @p ram_addr and flip one bit of its payload.
 * @return true if the page was found.
 */
bool
flipBitInImage(const std::string &path, std::uint64_t ram_addr)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr)
        return false;
    char magic[8];
    std::uint8_t n8[8];
    if (std::fread(magic, 1, 8, f) != 8 ||
        std::fread(n8, 1, 8, f) != 8) {
        std::fclose(f);
        return false;
    }
    std::uint64_t pages = 0;
    for (int i = 7; i >= 0; --i)
        pages = (pages << 8) | n8[i];
    const std::uint64_t target_page = ram_addr / 4096;
    const std::uint64_t offset_in_page = ram_addr % 4096;
    bool found = false;
    for (std::uint64_t p = 0; p < pages; ++p) {
        std::uint8_t idx8[8];
        if (std::fread(idx8, 1, 8, f) != 8)
            break;
        std::uint64_t index = 0;
        for (int i = 7; i >= 0; --i)
            index = (index << 8) | idx8[i];
        const long payload = std::ftell(f);
        if (index == target_page) {
            std::fseek(f, payload + static_cast<long>(offset_in_page),
                       SEEK_SET);
            const int c = std::fgetc(f);
            std::fseek(f, payload + static_cast<long>(offset_in_page),
                       SEEK_SET);
            std::fputc(c ^ 0x10, f);
            found = true;
            break;
        }
        std::fseek(f, payload + 4096, SEEK_SET);
    }
    std::fclose(f);
    return found;
}

} // namespace


TEST(PersistenceTest, SaveReopenRoundTrip)
{
    Paths p("roundtrip");
    Rng rng(5);
    std::map<std::uint64_t, std::uint64_t> reference;
    {
        BackingStore ram;
        MerkleMemory mm(ram, config());
        for (int i = 0; i < 500; ++i) {
            const std::uint64_t addr = 8 * rng.below(4096);
            const std::uint64_t v = rng.next();
            mm.store64(addr, v);
            reference[addr] = v;
        }
        saveUntrustedImage(mm, ram, p.ram);
        saveTrustedRoots(mm, p.roots);
    }
    {
        BackingStore ram;
        MerkleMemory mm(ram, config());
        loadState(mm, ram, p.ram, p.roots);
        for (const auto &[addr, v] : reference)
            ASSERT_EQ(mm.load64(addr), v);
        mm.flush();
        EXPECT_TRUE(mm.verifyAll());
    }
}

TEST(PersistenceTest, OfflineTamperDetectedOnReopen)
{
    Paths p("tamper");
    std::uint64_t target_ram_addr = 0;
    {
        BackingStore ram;
        MerkleMemory mm(ram, config());
        for (int i = 0; i < 200; ++i)
            mm.store64(8 * i, i + 1);
        target_ram_addr = mm.layout().dataToRam(8 * 100);
        saveUntrustedImage(mm, ram, p.ram);
        saveTrustedRoots(mm, p.roots);
    }
    ASSERT_TRUE(flipBitInImage(p.ram, target_ram_addr));
    {
        BackingStore ram;
        MerkleMemory mm(ram, config());
        loadState(mm, ram, p.ram, p.roots);
        EXPECT_FALSE(mm.verifyAll());
        EXPECT_THROW(mm.load64(8 * 100), IntegrityException);
    }
}

TEST(PersistenceTest, UntouchedChunksStayCanonicalAfterReload)
{
    Paths p("canonical");
    {
        BackingStore ram;
        MerkleMemory mm(ram, config());
        mm.store64(0, 42);
        saveUntrustedImage(mm, ram, p.ram);
        saveTrustedRoots(mm, p.roots);
    }
    {
        BackingStore ram;
        MerkleMemory mm(ram, config());
        loadState(mm, ram, p.ram, p.roots);
        EXPECT_EQ(mm.load64(0), 42u);
        EXPECT_EQ(mm.load64(1 << 17), 0u)
            << "virgin regions still verified-zero after reload";
    }
}

std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    std::uint8_t buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

TEST(PersistenceTest, OneContentSavesToTheSameBytesWhateverTheWriteOrder)
{
    // Pages and touched chunks are written in ascending index order,
    // so the image depends on the content alone, not on the order in
    // which pages and chunks were first touched.
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t a = 0; a < (1u << 18); a += 520)
        addrs.push_back(a & ~std::uint64_t{7});
    const auto save = [&addrs](const char *tag, bool reverse) {
        Paths p(tag);
        BackingStore ram;
        MerkleMemory mm(ram, config());
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            const std::uint64_t addr =
                addrs[reverse ? addrs.size() - 1 - i : i];
            mm.store64(addr, addr * 0x9E3779B97F4A7C15ULL + 1);
        }
        saveUntrustedImage(mm, ram, p.ram);
        return fileBytes(p.ram);
    };
    const std::vector<std::uint8_t> forward = save("order_fwd", false);
    const std::vector<std::uint8_t> backward = save("order_rev", true);
    ASSERT_GT(forward.size(), 64u * 4096);
    EXPECT_TRUE(forward == backward)
        << "two write orders of one content saved different images";
}

} // namespace
} // namespace cmt
