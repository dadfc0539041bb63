#include "verify/xom_memory.h"

#include <algorithm>
#include <cstring>

#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "mem/storage.h"
#include "support/bitops.h"
#include "support/logging.h"

namespace cmt
{

XomMemory::XomMemory(Storage &untrusted, std::uint64_t size,
                     const Key128 &compartment_key,
                     std::uint64_t block_size)
    : untrusted_(untrusted), size_(size), blockSize_(block_size),
      key_(compartment_key), cipher_(compartment_key)
{
    cmt_assert(isPow2(block_size));
    cmt_assert(size % block_size == 0);

    // Initialise every record so that first loads verify: XOM's
    // compartment setup encrypts the initial (zero) image.
    std::vector<std::uint8_t> zeros(blockSize_, 0);
    for (std::uint64_t b = 0; b < size_ / blockSize_; ++b)
        storeBlock(b, zeros);
}

std::vector<std::uint8_t>
XomMemory::loadBlock(std::uint64_t block)
{
    std::vector<std::uint8_t> record(recordSize());
    untrusted_.read(recordAddr(block), record);

    // Recompute the address-bound MAC over the ciphertext.
    std::vector<std::uint8_t> msg;
    msg.reserve(8 + blockSize_);
    const std::uint64_t addr = block * blockSize_;
    for (int i = 0; i < 8; ++i)
        msg.push_back(static_cast<std::uint8_t>(addr >> (8 * i)));
    msg.insert(msg.end(), record.begin(), record.begin() + blockSize_);
    const Hash128 mac = hmacMd5(key_, msg);
    if (!std::equal(mac.begin(), mac.end(),
                    record.begin() + blockSize_)) {
        throw XomIntegrityException(addr);
    }

    std::vector<std::uint8_t> plain(record.begin(),
                                    record.begin() + blockSize_);
    cipher_.ctrCrypt(addr, plain);
    return plain;
}

void
XomMemory::storeBlock(std::uint64_t block,
                      std::span<const std::uint8_t> plain)
{
    cmt_assert(plain.size() == blockSize_);
    const std::uint64_t addr = block * blockSize_;

    std::vector<std::uint8_t> record(plain.begin(), plain.end());
    cipher_.ctrCrypt(addr, record);

    std::vector<std::uint8_t> msg;
    msg.reserve(8 + blockSize_);
    for (int i = 0; i < 8; ++i)
        msg.push_back(static_cast<std::uint8_t>(addr >> (8 * i)));
    msg.insert(msg.end(), record.begin(), record.end());
    const Hash128 mac = hmacMd5(key_, msg);
    record.insert(record.end(), mac.begin(), mac.end());

    untrusted_.write(recordAddr(block), record);
}

void
XomMemory::load(std::uint64_t addr, std::span<std::uint8_t> out)
{
    cmt_assert(addr + out.size() <= size_);
    std::size_t done = 0;
    while (done < out.size()) {
        const std::uint64_t block = (addr + done) / blockSize_;
        const std::uint64_t offset = (addr + done) % blockSize_;
        const std::size_t take = std::min<std::size_t>(
            out.size() - done, blockSize_ - offset);
        const auto plain = loadBlock(block);
        std::memcpy(out.data() + done, plain.data() + offset, take);
        done += take;
    }
}

void
XomMemory::store(std::uint64_t addr, std::span<const std::uint8_t> in)
{
    cmt_assert(addr + in.size() <= size_);
    std::size_t done = 0;
    while (done < in.size()) {
        const std::uint64_t block = (addr + done) / blockSize_;
        const std::uint64_t offset = (addr + done) % blockSize_;
        const std::size_t take = std::min<std::size_t>(
            in.size() - done, blockSize_ - offset);
        auto plain = loadBlock(block);
        std::memcpy(plain.data() + offset, in.data() + done, take);
        storeBlock(block, plain);
        done += take;
    }
}

std::uint64_t
XomMemory::load64(std::uint64_t addr)
{
    std::uint8_t buf[8];
    load(addr, buf);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

void
XomMemory::store64(std::uint64_t addr, std::uint64_t value)
{
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    store(addr, buf);
}

} // namespace cmt
