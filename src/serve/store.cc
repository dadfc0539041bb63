#include "serve/store.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "serve/protocol.h"
#include "support/logging.h"
#include "verify/merkle_memory.h"
#include "verify/persistence.h"

namespace cmt::serve
{

namespace
{

bool
fileExists(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return f.good();
}

} // namespace

ServeStore::ServeStore(std::string name, const MerkleConfig &config)
    : name_(std::move(name)), memory_(backing_, config),
      size_(memory_.size()), shards_(memory_.tree().shards())
{}

StoreOutcome
ServeStore::read(std::uint64_t addr, std::uint32_t len,
                 std::vector<std::uint8_t> *out, std::string *err)
{
    if (len == 0 || len > kMaxFrameBytes) {
        *err = "read length out of range";
        return StoreOutcome::kBadRequest;
    }
    if (addr > size_ || size_ - addr < len) {
        *err = "read beyond protected region";
        return StoreOutcome::kBadRequest;
    }
    out->resize(len);
    try {
        memory_.load(addr, std::span<std::uint8_t>(*out));
    } catch (const IntegrityException &e) {
        corruptions_.fetch_add(1);
        *err = e.what();
        return StoreOutcome::kCorrupt;
    }
    readOps_.fetch_add(1);
    return StoreOutcome::kOk;
}

StoreOutcome
ServeStore::applyOne(const WriteOp &op, std::size_t index,
                     std::vector<StoreOutcome> *per_op, std::string *err)
{
    try {
        memory_.store(op.addr, std::span<const std::uint8_t>(op.data));
    } catch (const IntegrityException &e) {
        corruptions_.fetch_add(1);
        (*per_op)[index] = StoreOutcome::kCorrupt;
        *err = e.what();
        return StoreOutcome::kCorrupt;
    }
    writeOps_.fetch_add(1);
    (*per_op)[index] = StoreOutcome::kOk;
    return StoreOutcome::kOk;
}

StoreOutcome
ServeStore::applyWriteBatch(std::span<const WriteOp> ops,
                            std::vector<StoreOutcome> *per_op,
                            std::string *err)
{
    per_op->assign(ops.size(), StoreOutcome::kFailed);

    // Validate everything up front so a bad op rejects before any
    // sibling mutates the tree: the batch either starts applying or
    // bounces whole.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const WriteOp &op = ops[i];
        if (op.data.empty() || op.data.size() > kMaxFrameBytes ||
            op.addr > size_ || size_ - op.addr < op.data.size()) {
            (*per_op)[i] = StoreOutcome::kBadRequest;
            *err = "write beyond protected region";
            return StoreOutcome::kBadRequest;
        }
    }

    // Shard-major replay: bucket ops by destination subtree so
    // consecutive updates share hot ancestor chunks, keeping arrival
    // order within each shard. Only equivalence-preserving when no op
    // straddles a shard boundary - those batches replay in arrival
    // order instead.
    bool straddles = false;
    for (const WriteOp &op : ops) {
        if (memory_.tree().shardOfData(op.addr) !=
            memory_.tree().shardOfData(op.addr + op.data.size() - 1)) {
            straddles = true;
            break;
        }
    }

    if (shards_ <= 1 || ops.size() < 2 || straddles) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const StoreOutcome r = applyOne(ops[i], i, per_op, err);
            if (r != StoreOutcome::kOk)
                return r;
        }
        return StoreOutcome::kOk;
    }

    std::vector<std::vector<std::size_t>> byShard(shards_);
    for (std::size_t i = 0; i < ops.size(); ++i)
        byShard[memory_.tree().shardOfData(ops[i].addr)].push_back(i);
    for (const auto &group : byShard) {
        for (std::size_t i : group) {
            const StoreOutcome r = applyOne(ops[i], i, per_op, err);
            if (r != StoreOutcome::kOk)
                return r;
        }
    }
    return StoreOutcome::kOk;
}

bool
ServeStore::verifyAll()
{
    const bool clean = memory_.verifyAll();
    if (!clean)
        corruptions_.fetch_add(1);
    return clean;
}

void
ServeStore::sync()
{
    memory_.flush();
}

void
ServeStore::setStatePaths(const std::string &image_path,
                          const std::string &roots_path)
{
    imagePath_ = image_path;
    rootsPath_ = roots_path;
}

bool
ServeStore::saveState(std::string *err)
{
    if (imagePath_.empty() || rootsPath_.empty()) {
        *err = "store '" + name_ + "' has no state paths bound";
        return false;
    }
    // Image first, then roots: each save is individually atomic
    // (tmp + rename), and a crash between the two leaves an
    // image/roots pair from different epochs that loadState rejects.
    ScopedThrowOnError guard;
    try {
        saveUntrustedImage(memory_, backing_, imagePath_);
        saveTrustedRoots(memory_, rootsPath_);
    } catch (const SimError &e) {
        *err = e.what();
        return false;
    }
    return true;
}

bool
ServeStore::loadStateIfPresent(bool *loaded, std::string *err)
{
    *loaded = false;
    if (imagePath_.empty() || rootsPath_.empty()) {
        *err = "store '" + name_ + "' has no state paths bound";
        return false;
    }
    if (!fileExists(imagePath_) && !fileExists(rootsPath_))
        return true; // fresh store, nothing on disk
    ScopedThrowOnError guard;
    try {
        loadState(memory_, backing_, imagePath_, rootsPath_);
    } catch (const SimError &e) {
        *err = e.what();
        return false;
    }
    *loaded = true;
    return true;
}

} // namespace cmt::serve
