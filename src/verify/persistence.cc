#include "verify/persistence.h"

#include <cerrno>
// cmt-analyze: allow(stdout-discipline) - atomic rename needs std::rename
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "crypto/md5.h"
#include "mem/backing_store.h"
#include "support/logging.h"
#include "tree/layout.h"
#include "tree/shard_router.h"
#include "verify/merkle_memory.h"

namespace cmt
{

namespace
{

constexpr char kRamMagic[8] = {'C', 'M', 'T', 'R', 'A', 'M', '0', '1'};
constexpr char kRootMagic[8] = {'C', 'M', 'T', 'R', 'T', 'S', '0', '2'};

/**
 * Unwind-path cleanup only. Save paths must go through closeOrDie():
 * fclose() flushes stdio's buffer, so an ENOSPC/EIO surfacing there
 * is a failed save, and a destructor has no way to report it.
 */
struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f != nullptr)
            std::fclose(f);
    }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File
openOrDie(const std::string &path, const char *mode)
{
    File f(std::fopen(path.c_str(), mode));
    if (!f)
        cmt_fatal("cannot open '%s' (%s)", path.c_str(), mode);
    return f;
}

/**
 * Flush and close a written file, checking both verdicts: a buffered
 * write that failed earlier (ferror), a flush that hits a full disk,
 * or a close whose final implicit flush fails must all abort the save
 * loudly instead of leaving a silently short file behind.
 */
void
closeOrDie(File f, const std::string &path)
{
    std::FILE *raw = f.release();
    const bool flushed = std::fflush(raw) == 0;
    const bool healthy = std::ferror(raw) == 0;
    const bool closed = std::fclose(raw) == 0;
    if (!flushed || !healthy || !closed)
        cmt_fatal("write to '%s' failed (%s): disk full or I/O error",
                  path.c_str(), std::strerror(errno));
}

/** The crash stage injected by setSaveCrashStage(), if any. */
std::string &
crashStage()
{
    static std::string stage;
    return stage;
}

/** Die (via cmt_fatal) when the injected crash stage matches. */
void
maybeCrashAt(const char *stage)
{
    if (crashStage() == stage)
        cmt_fatal("injected crash at save stage '%s'", stage);
}

/**
 * Atomically publish @p tmp as @p path. Only the rename makes the new
 * state visible: a crash anywhere before it leaves the previous image
 * untouched, and a failed rename must not pretend the save happened.
 */
void
commitOrDie(const std::string &tmp, const std::string &path)
{
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        cmt_fatal("cannot publish '%s' over '%s' (%s)", tmp.c_str(),
                  path.c_str(), std::strerror(errno));
}

void
put64(std::FILE *f, std::uint64_t v)
{
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    if (std::fwrite(buf, 1, 8, f) != 8)
        cmt_fatal("short write during save");
}

std::uint64_t
get64(std::FILE *f)
{
    std::uint8_t buf[8];
    if (std::fread(buf, 1, 8, f) != 8)
        cmt_fatal("short read during load");
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

/** Append a little-endian 64-bit value to @p out. */
void
app64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Read a little-endian 64-bit value at @p pos of @p in. */
std::uint64_t
peek64(const std::vector<std::uint8_t> &in, std::size_t pos)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | in[pos + static_cast<std::size_t>(i)];
    return v;
}

/** Geometry fingerprint so mismatched configs fail loudly. */
std::uint64_t
fingerprint(const MerkleMemory &memory)
{
    const ShardRouter &tree = memory.tree();
    return tree.chunkSize() * 0x1000003ULL ^
           tree.totalChunks() * 0x10001ULL ^ tree.levels() ^
           static_cast<std::uint64_t>(tree.shards()) *
               0x9E3779B97F4A7C15ULL;
}

} // namespace

void
setSaveCrashStage(const char *stage)
{
    crashStage() = stage == nullptr ? "" : stage;
}

void
saveUntrustedImage(MerkleMemory &memory, const BackingStore &ram,
                   const std::string &ram_path)
{
    memory.flush();

    // Never write the final path in place: a crash (or ENOSPC) midway
    // would destroy the last good snapshot. Build the new image under
    // a tmp name and only rename() it over once fully flushed.
    const std::string tmp = ram_path + ".tmp";
    File f = openOrDie(tmp, "wb");
    if (std::fwrite(kRamMagic, 1, sizeof(kRamMagic), f.get()) !=
        sizeof(kRamMagic))
        cmt_fatal("short write during RAM save");

    const auto &pages = ram.pages();
    put64(f.get(), pages.size());
    maybeCrashAt("image-mid-write");
    for (const auto &[index, bytes] : pages) {
        put64(f.get(), index);
        if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size())
            cmt_fatal("short write during RAM save");
    }

    const auto &touched = memory.chunkStore().touchedChunks();
    put64(f.get(), touched.size());
    for (const std::uint64_t chunk : touched)
        put64(f.get(), chunk);

    closeOrDie(std::move(f), tmp);
    maybeCrashAt("image-pre-rename");
    commitOrDie(tmp, ram_path);
}

void
saveTrustedRoots(MerkleMemory &memory, const std::string &root_path)
{
    const std::vector<Slot> roots = memory.exportRoots();
    const ShardRouter &tree = memory.tree();
    const std::uint64_t arity = tree.arity();
    cmt_assert(roots.size() == tree.shards() * arity);

    // Build the whole payload in memory so the trailing digest covers
    // every per-shard record: a crash between two shard writes leaves
    // a truncated or torn file that the load-time digest check (or a
    // short read) rejects.
    std::vector<std::uint8_t> payload;
    app64(payload, fingerprint(memory));
    app64(payload, tree.shards());
    app64(payload, arity);
    for (std::uint64_t s = 0; s < tree.shards(); ++s) {
        app64(payload, s);
        for (std::uint64_t i = 0; i < arity; ++i) {
            const Slot &root = roots[s * arity + i];
            payload.insert(payload.end(), root.begin(), root.end());
        }
    }
    const Hash128 digest = Md5::digest(payload);

    // Same tmp + flush + rename discipline as the RAM image: the
    // previous root file stays intact until the new one is durable.
    const std::string tmp = root_path + ".tmp";
    File f = openOrDie(tmp, "wb");
    if (std::fwrite(kRootMagic, 1, sizeof(kRootMagic), f.get()) !=
        sizeof(kRootMagic))
        cmt_fatal("short write during root save");
    maybeCrashAt("roots-mid-write");
    if (std::fwrite(payload.data(), 1, payload.size(), f.get()) !=
            payload.size() ||
        std::fwrite(digest.data(), 1, digest.size(), f.get()) !=
            digest.size())
        cmt_fatal("short write during root save");

    closeOrDie(std::move(f), tmp);
    maybeCrashAt("roots-pre-rename");
    commitOrDie(tmp, root_path);
}

void
loadState(MerkleMemory &memory, BackingStore &ram,
          const std::string &ram_path, const std::string &root_path)
{
    // --- untrusted image ---------------------------------------------
    {
        File f = openOrDie(ram_path, "rb");
        char magic[8];
        if (std::fread(magic, 1, 8, f.get()) != 8 ||
            std::memcmp(magic, kRamMagic, 8) != 0)
            cmt_fatal("'%s' is not a CMT RAM image", ram_path.c_str());

        const std::uint64_t page_count = get64(f.get());
        std::vector<std::uint8_t> page(BackingStore::kPageSize);
        for (std::uint64_t i = 0; i < page_count; ++i) {
            const std::uint64_t index = get64(f.get());
            if (std::fread(page.data(), 1, page.size(), f.get()) !=
                page.size())
                cmt_fatal("short read during RAM load");
            ram.write(index * BackingStore::kPageSize, page);
        }

        const std::uint64_t touched_count = get64(f.get());
        for (std::uint64_t i = 0; i < touched_count; ++i)
            memory.chunkStore().markTouched(get64(f.get()));
    }

    // --- trusted roots -------------------------------------------------
    {
        File f = openOrDie(root_path, "rb");
        char magic[8];
        if (std::fread(magic, 1, 8, f.get()) != 8 ||
            std::memcmp(magic, kRootMagic, 8) != 0)
            cmt_fatal("'%s' is not a CMT root file", root_path.c_str());

        // Slurp payload + trailing digest; verify the digest before
        // trusting a single field. Torn or truncated multi-root state
        // must never verify.
        std::vector<std::uint8_t> rest;
        std::uint8_t buf[4096];
        for (;;) {
            const std::size_t got =
                std::fread(buf, 1, sizeof(buf), f.get());
            rest.insert(rest.end(), buf, buf + got);
            if (got < sizeof(buf))
                break;
        }
        Hash128 digest;
        if (rest.size() < digest.size())
            cmt_fatal("root file '%s' is truncated", root_path.c_str());
        std::vector<std::uint8_t> payload(rest.begin(),
                                          rest.end() - digest.size());
        std::memcpy(digest.data(), rest.data() + payload.size(),
                    digest.size());
        if (Md5::digest(payload) != digest)
            cmt_fatal("root file '%s' fails its integrity digest "
                      "(torn or tampered save)",
                      root_path.c_str());

        const ShardRouter &tree = memory.tree();
        const std::uint64_t arity = tree.arity();
        const std::uint64_t record =
            8 + arity * TreeLayout::kSlotSize; // index + slots
        if (payload.size() != 24 + tree.shards() * record)
            cmt_fatal("root file '%s' has the wrong shape for this "
                      "memory",
                      root_path.c_str());
        if (peek64(payload, 0) != fingerprint(memory))
            cmt_fatal("root file geometry does not match this memory "
                      "(different chunk size / protected size / "
                      "shards?)");
        if (peek64(payload, 8) != tree.shards() ||
            peek64(payload, 16) != arity)
            cmt_fatal("root file shard layout does not match this "
                      "memory");

        std::vector<Slot> roots(tree.shards() * arity);
        for (std::uint64_t s = 0; s < tree.shards(); ++s) {
            const std::size_t base =
                24 + static_cast<std::size_t>(s * record);
            if (peek64(payload, base) != s)
                cmt_fatal("root file '%s' has out-of-order shard "
                          "records (torn save?)",
                          root_path.c_str());
            for (std::uint64_t i = 0; i < arity; ++i)
                std::memcpy(roots[s * arity + i].data(),
                            payload.data() + base + 8 +
                                i * TreeLayout::kSlotSize,
                            TreeLayout::kSlotSize);
        }
        memory.importRoots(roots);
    }
}

} // namespace cmt
