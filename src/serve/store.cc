#include "serve/store.h"

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
    : name_(std::move(name)), memory_(backing_, config)
{}

StoreOutcome
ServeStore::read(std::uint64_t addr, std::uint32_t len,
                 std::vector<std::uint8_t> *out, std::string *err)
{
    if (len == 0 || len > kMaxFrameBytes) {
        *err = "read length out of range";
        return StoreOutcome::kBadRequest;
    }
    if (addr > size() || size() - addr < len) {
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
ServeStore::write(std::uint64_t addr, std::span<const std::uint8_t> data,
                  std::string *err)
{
    if (data.empty() || data.size() > kMaxFrameBytes) {
        *err = "write length out of range";
        return StoreOutcome::kBadRequest;
    }
    if (addr > size() || size() - addr < data.size()) {
        *err = "write beyond protected region";
        return StoreOutcome::kBadRequest;
    }
    try {
        memory_.store(addr, data);
    } catch (const IntegrityException &e) {
        corruptions_.fetch_add(1);
        *err = e.what();
        return StoreOutcome::kCorrupt;
    }
    writeOps_.fetch_add(1);
    return StoreOutcome::kOk;
}

StoreOutcome
ServeStore::applyWriteBatch(std::span<const WriteOp> ops,
                            std::vector<StoreOutcome> *per_op,
                            std::string *err)
{
    per_op->assign(ops.size(), StoreOutcome::kFailed);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        (*per_op)[i] = write(ops[i].addr, ops[i].data, err);
        if ((*per_op)[i] != StoreOutcome::kOk)
            return (*per_op)[i];
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
