/**
 * @file
 * End-to-end daemon tests: an in-process serve::Server on a unix
 * socket, driven through the client library and through raw byte
 * sequences a buggy or hostile client would produce.
 *
 * Covered here because only a live socket can prove them: protocol
 * edge cases (torn, truncated, zero-length and oversized frames,
 * disconnects mid-request), bounded-queue liveness under pipelined
 * floods, multi-client concurrency equivalence against a serial
 * replay, corruption surfacing as kCorrupt over the wire, and the
 * shutdown -> save -> reload cycle.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"
#include "verify/adversary.h"

namespace cmt::serve
{
namespace
{

/** Small geometry keeps every test fast: 64 KiB, 4 subtrees. */
MerkleConfig
smallConfig(unsigned shards = 4, unsigned cache_chunks = 16)
{
    MerkleConfig cfg;
    cfg.protectedSize = 1u << 16;
    cfg.cacheChunks = cache_chunks;
    cfg.shards = shards;
    return cfg;
}

/** An in-process daemon on a per-test socket path. */
struct Daemon
{
    explicit Daemon(const std::string &tag, unsigned stores = 1,
                    const MerkleConfig &mc = smallConfig(),
                    unsigned workers = 2, std::size_t queue_depth = 64)
        : path(::testing::TempDir() + "/cmt_" + tag + ".sock")
    {
        ServeConfig sc;
        sc.socketPath = path;
        sc.workers = workers;
        sc.queueDepth = queue_depth;
        server = std::make_unique<Server>(sc);
        for (unsigned i = 0; i < stores; ++i)
            server->addStore(std::make_unique<ServeStore>(
                "store" + std::to_string(i), mc));
        started = server->start(&startErr);
    }

    ~Daemon() { stop(); } // ~Server stops, joins, unlinks the socket

    void
    stop()
    {
        if (server != nullptr) {
            server->requestStop();
            server->waitUntilStopped();
        }
    }

    std::string path;
    std::unique_ptr<Server> server;
    bool started = false;
    std::string startErr;
};

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::uint8_t>
patternBlock(std::uint64_t seed, std::size_t len)
{
    std::vector<std::uint8_t> block(len);
    std::uint64_t rng = seed;
    for (std::uint8_t &b : block)
        b = static_cast<std::uint8_t>(splitmix64(rng));
    return block;
}

TEST(ServedLifecycle, SecondDaemonRejectsLiveSocketThenReclaimsStale)
{
    std::string path;
    {
        Daemon first("lifecycle");
        ASSERT_TRUE(first.started) << first.startErr;
        path = first.path;

        // A live daemon on the path must be left alone.
        Daemon clash("lifecycle");
        EXPECT_FALSE(clash.started);
        EXPECT_NE(clash.startErr.find("in use"), std::string::npos)
            << clash.startErr;
    } // ~Server closed the listen socket and unlinked the path

    // Recreate the crashed-daemon case: a bound socket file whose
    // owning process is gone. A new daemon must reclaim it.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr),
              0)
        << std::strerror(errno);
    ::close(fd); // file stays behind, nobody listens

    Daemon second("lifecycle");
    EXPECT_TRUE(second.started) << second.startErr;
}

TEST(ServedRoundTrip, WriteReadVerifyAndStats)
{
    Daemon d("roundtrip");
    ASSERT_TRUE(d.started) << d.startErr;

    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    EXPECT_TRUE(c.ping(&err)) << err;

    // A block spanning two chunks round-trips byte-identically.
    const std::vector<std::uint8_t> block = patternBlock(7, 128);
    ASSERT_EQ(c.writeBlock(0, 4096, block, &err), CallResult::kOk)
        << err;
    std::vector<std::uint8_t> got;
    ASSERT_EQ(c.readBlock(0, 4096, 128, &got, &err), CallResult::kOk)
        << err;
    EXPECT_EQ(got, block);

    // Never-written memory reads back as zeros (verified zeros: the
    // tree covers the whole protected region from construction).
    ASSERT_EQ(c.readBlock(0, 32768, 64, &got, &err), CallResult::kOk)
        << err;
    EXPECT_EQ(got, std::vector<std::uint8_t>(64, 0));

    bool clean = false;
    ASSERT_TRUE(c.verifyStore(0, &clean, &err)) << err;
    EXPECT_TRUE(clean);
    EXPECT_TRUE(c.syncStore(0, &err)) << err;

    ServerStats stats;
    ASSERT_TRUE(c.fetchStats(&stats, &err)) << err;
    EXPECT_GE(stats.connections, 1u);
    EXPECT_GE(stats.requests, 5u);
    EXPECT_GE(stats.readOps, 2u);
    EXPECT_GE(stats.writeOps, 1u);
    EXPECT_EQ(stats.verifyFailures, 0u);
    EXPECT_GT(stats.bytesIn, 0u);
    EXPECT_GT(stats.bytesOut, 0u);
}

TEST(ServedRequests, BadRequestsGetErrorRepliesAndKeepTheConnection)
{
    Daemon d("badreq");
    ASSERT_TRUE(d.started) << d.startErr;

    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    std::vector<std::uint8_t> got;
    const std::vector<std::uint8_t> block = patternBlock(1, 64);

    // Out-of-range reads and writes, zero lengths, unknown stores.
    EXPECT_EQ(c.readBlock(0, 1u << 16, 64, &got, &err),
              CallResult::kError);
    EXPECT_EQ(c.readBlock(0, (1u << 16) - 32, 64, &got, &err),
              CallResult::kError);
    EXPECT_EQ(c.readBlock(0, 0, 0, &got, &err), CallResult::kError);
    EXPECT_EQ(c.readBlock(9, 0, 64, &got, &err), CallResult::kError);
    EXPECT_EQ(c.writeBlock(0, (1u << 16) - 32, block, &err),
              CallResult::kError);
    EXPECT_EQ(c.writeBlock(5, 0, block, &err), CallResult::kError);

    // A malformed (short) kRead payload is an error reply, not a
    // connection loss.
    const std::uint8_t stub[] = {1, 2};
    Status status = Status::kOk;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(c.request(Op::kRead, stub, &status, &reply, &err))
        << err;
    EXPECT_EQ(status, Status::kError);

    // Unknown opcodes round-trip into an error reply too.
    ASSERT_TRUE(c.request(static_cast<Op>(99), {}, &status, &reply,
                          &err))
        << err;
    EXPECT_EQ(status, Status::kError);

    // After all of the above the connection still works.
    EXPECT_TRUE(c.ping(&err)) << err;
    ASSERT_EQ(c.readBlock(0, 0, 64, &got, &err), CallResult::kOk)
        << err;
}

TEST(ServedFraming, OversizedFrameGetsOneErrorReplyThenClose)
{
    Daemon d("oversize");
    ASSERT_TRUE(d.started) << d.startErr;

    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;

    std::vector<std::uint8_t> raw;
    appendU32(raw, kMaxFrameBytes + 1);
    ASSERT_TRUE(c.sendRaw(raw, &err)) << err;

    // One in-order error reply, then the server hangs up: the stream
    // cannot be resynchronized once framing is in doubt.
    Status status = Status::kOk;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(c.recvReply(&status, &payload, &err)) << err;
    EXPECT_EQ(status, Status::kError);
    EXPECT_FALSE(c.recvReply(&status, &payload, &err));
    EXPECT_FALSE(c.connected());
}

TEST(ServedFraming, ZeroLengthFrameGetsOneErrorReplyThenClose)
{
    Daemon d("zerolen");
    ASSERT_TRUE(d.started) << d.startErr;

    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;

    std::vector<std::uint8_t> raw;
    appendU32(raw, 0);
    ASSERT_TRUE(c.sendRaw(raw, &err)) << err;

    Status status = Status::kOk;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(c.recvReply(&status, &payload, &err)) << err;
    EXPECT_EQ(status, Status::kError);
    EXPECT_FALSE(c.recvReply(&status, &payload, &err));
}

TEST(ServedFraming, TornFrameDisconnectLeavesServerHealthy)
{
    Daemon d("torn");
    ASSERT_TRUE(d.started) << d.startErr;
    std::string err;

    {
        // Claim a 100-byte body, deliver 10, vanish.
        Client torn;
        ASSERT_TRUE(torn.connectTo(d.path, &err)) << err;
        std::vector<std::uint8_t> raw;
        appendU32(raw, 100);
        for (int i = 0; i < 10; ++i)
            appendU8(raw, 0xee);
        ASSERT_TRUE(torn.sendRaw(raw, &err)) << err;
        torn.disconnect();
    }
    {
        // Deliver only half of the length prefix itself, vanish.
        Client headerTorn;
        ASSERT_TRUE(headerTorn.connectTo(d.path, &err)) << err;
        const std::uint8_t half[] = {0x40, 0x00};
        ASSERT_TRUE(headerTorn.sendRaw(half, &err)) << err;
        headerTorn.disconnect();
    }
    {
        // Pipeline a burst of pings and hang up without reading any
        // reply; the server must discard the work without damage.
        Client flood;
        ASSERT_TRUE(flood.connectTo(d.path, &err)) << err;
        std::vector<std::uint8_t> raw;
        for (int i = 0; i < 50; ++i) {
            const std::vector<std::uint8_t> frame =
                frameRequest(Op::kPing, {});
            raw.insert(raw.end(), frame.begin(), frame.end());
        }
        ASSERT_TRUE(flood.sendRaw(raw, &err)) << err;
        flood.disconnect();
    }

    // A fresh client still gets full service.
    Client c;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    EXPECT_TRUE(c.ping(&err)) << err;
    const std::vector<std::uint8_t> block = patternBlock(3, 64);
    ASSERT_EQ(c.writeBlock(0, 0, block, &err), CallResult::kOk) << err;
    std::vector<std::uint8_t> got;
    ASSERT_EQ(c.readBlock(0, 0, 64, &got, &err), CallResult::kOk)
        << err;
    EXPECT_EQ(got, block);
}

TEST(ServedFraming, PipelinedFloodRepliesInOrderPastTinyQueue)
{
    // queueDepth 4 forces the backpressure path (EPOLLIN parked and
    // re-armed) many times over; replies must still arrive exactly in
    // request order.
    Daemon d("flood", 1, smallConfig(), 2, 4);
    ASSERT_TRUE(d.started) << d.startErr;

    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;

    constexpr int kBlocks = 64;
    for (int i = 0; i < kBlocks; ++i) {
        const std::vector<std::uint8_t> block(
            64, static_cast<std::uint8_t>(i + 1));
        ASSERT_EQ(c.writeBlock(0, static_cast<std::uint64_t>(i) * 64,
                               block, &err),
                  CallResult::kOk)
            << err;
    }

    // Pipeline one read per block in a single burst, then collect.
    std::vector<std::uint8_t> raw;
    for (int i = 0; i < kBlocks; ++i) {
        std::vector<std::uint8_t> payload;
        appendU32(payload, 0);
        appendU64(payload, static_cast<std::uint64_t>(i) * 64);
        appendU32(payload, 64);
        const std::vector<std::uint8_t> frame =
            frameRequest(Op::kRead, payload);
        raw.insert(raw.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(c.sendRaw(raw, &err)) << err;
    for (int i = 0; i < kBlocks; ++i) {
        Status status = Status::kError;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(c.recvReply(&status, &payload, &err))
            << "reply " << i << ": " << err;
        ASSERT_EQ(status, Status::kOk) << "reply " << i;
        ASSERT_EQ(payload.size(), 64u);
        EXPECT_EQ(payload[0], static_cast<std::uint8_t>(i + 1))
            << "reply " << i << " out of order";
    }
}

TEST(ServedConcurrency, ParallelClientsMatchSerialReplayByteForByte)
{
    // Four clients hammer store 0 concurrently over disjoint slices
    // while one client later replays the identical traces serially
    // into store 1. Slice disjointness makes the interleaving
    // immaterial, so both stores must end byte-identical. This is
    // the daemon's parallel-equals-serial proof; cmt_loadgen only
    // checks each client's reads against its own writes.
    Daemon d("parclients", 2, smallConfig(), 3);
    ASSERT_TRUE(d.started) << d.startErr;

    constexpr unsigned kClients = 4;
    constexpr unsigned kOps = 120;
    constexpr std::uint64_t kSlice = (1u << 16) / kClients;
    constexpr std::uint64_t kBlocks = kSlice / 64;

    // One deterministic trace per client, replayable on any store.
    auto runTrace = [&](Client &c, unsigned id, std::uint32_t sid,
                        std::string *out_err) -> bool {
        std::uint64_t rng = 0x1000 + id;
        std::map<std::uint64_t, std::vector<std::uint8_t>> shadow;
        for (unsigned op = 0; op < kOps; ++op) {
            const std::uint64_t pick = splitmix64(rng);
            const bool write =
                shadow.empty() || splitmix64(rng) % 100 < 60;
            if (write) {
                const std::uint64_t addr =
                    id * kSlice + pick % kBlocks * 64;
                const std::vector<std::uint8_t> data =
                    patternBlock(splitmix64(rng), 64);
                if (c.writeBlock(sid, addr, data, out_err) !=
                    CallResult::kOk)
                    return false;
                shadow[addr] = data;
            } else {
                auto it = shadow.begin();
                std::advance(it, pick % shadow.size());
                std::vector<std::uint8_t> got;
                if (c.readBlock(sid, it->first, 64, &got, out_err) !=
                    CallResult::kOk)
                    return false;
                if (got != it->second) {
                    *out_err = "read-your-writes divergence";
                    return false;
                }
            }
        }
        return true;
    };

    std::vector<std::thread> threads;
    std::vector<std::string> errors(kClients);
    // ints, not vector<bool>: packed bits would race across threads
    std::vector<int> okFlags(kClients, 0);
    for (unsigned id = 0; id < kClients; ++id) {
        threads.emplace_back([&, id] {
            Client c;
            if (!c.connectTo(d.path, &errors[id]))
                return;
            okFlags[id] = runTrace(c, id, 0, &errors[id]) ? 1 : 0;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned id = 0; id < kClients; ++id)
        EXPECT_TRUE(okFlags[id])
            << "client " << id << ": " << errors[id];

    // Serial replay of the same traces into store 1.
    std::string err;
    Client serial;
    ASSERT_TRUE(serial.connectTo(d.path, &err)) << err;
    for (unsigned id = 0; id < kClients; ++id)
        ASSERT_TRUE(runTrace(serial, id, 1, &err))
            << "serial client " << id << ": " << err;

    // Both stores must agree byte for byte, and both trees verify.
    std::vector<std::uint8_t> parallelImage;
    std::vector<std::uint8_t> serialImage;
    ASSERT_EQ(serial.readBlock(0, 0, 1u << 16, &parallelImage, &err),
              CallResult::kOk)
        << err;
    ASSERT_EQ(serial.readBlock(1, 0, 1u << 16, &serialImage, &err),
              CallResult::kOk)
        << err;
    EXPECT_EQ(parallelImage, serialImage)
        << "parallel and serial runs diverged";
    for (std::uint32_t sid = 0; sid < 2; ++sid) {
        bool clean = false;
        ASSERT_TRUE(serial.verifyStore(sid, &clean, &err)) << err;
        EXPECT_TRUE(clean) << "store " << sid;
    }
}

TEST(ServedIntegrity, TamperedRamSurfacesAsCorruptOverTheWire)
{
    // cacheChunks 0 means every access verifies against RAM, so an
    // adversarial flip is caught on the very next read.
    Daemon d("tamper", 1, smallConfig(4, 0));
    ASSERT_TRUE(d.started) << d.startErr;

    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    const std::vector<std::uint8_t> block = patternBlock(11, 64);
    ASSERT_EQ(c.writeBlock(0, 128, block, &err), CallResult::kOk)
        << err;

    // Reach around the protocol and flip one bit of untrusted RAM,
    // exactly as a physical attacker would (no requests are in
    // flight, so the unlocked test hook is safe).
    MerkleMemory &mm = d.server->store(0)->memoryForTest();
    Adversary adv(mm.ram());
    const std::uint64_t ramAddr = mm.tree().dataToRam(128);
    adv.flipBit(ramAddr, 3);

    std::vector<std::uint8_t> got;
    EXPECT_EQ(c.readBlock(0, 128, 64, &got, &err),
              CallResult::kCorrupt);
    bool clean = true;
    ASSERT_TRUE(c.verifyStore(0, &clean, &err)) << err;
    EXPECT_FALSE(clean);

    ServerStats stats;
    ASSERT_TRUE(c.fetchStats(&stats, &err)) << err;
    EXPECT_GE(stats.verifyFailures, 2u);

    // Undo the flip: service resumes with the original data intact.
    adv.flipBit(ramAddr, 3);
    ASSERT_EQ(c.readBlock(0, 128, 64, &got, &err), CallResult::kOk)
        << err;
    EXPECT_EQ(got, block);
}

TEST(ServedPersistence, ShutdownSaveReloadServesTheSameBytes)
{
    const std::string image =
        ::testing::TempDir() + "/cmt_served_reload.image";
    const std::string roots =
        ::testing::TempDir() + "/cmt_served_reload.roots";
    std::remove(image.c_str());
    std::remove(roots.c_str());

    const std::vector<std::uint8_t> block = patternBlock(23, 256);
    std::string err;
    {
        Daemon d("reload");
        ASSERT_TRUE(d.started) << d.startErr;
        d.server->store(0)->setStatePaths(image, roots);

        Client c;
        ASSERT_TRUE(c.connectTo(d.path, &err)) << err;

        // kSave needs bound state paths; store ids without them fail
        // cleanly (checked in a store-less direction below). Here the
        // happy path: write, save over the wire, shut down over the
        // wire.
        ASSERT_EQ(c.writeBlock(0, 512, block, &err), CallResult::kOk)
            << err;
        ASSERT_TRUE(c.saveStore(0, &err)) << err;
        ASSERT_TRUE(c.shutdownServer(&err)) << err;
        d.server->waitUntilStopped();
        EXPECT_FALSE(d.server->running());
    }

    // The snapshot must exist and reload into a fresh daemon that
    // serves the identical verified bytes.
    {
        Daemon d("reload2");
        ASSERT_TRUE(d.started) << d.startErr;
        d.server->store(0)->setStatePaths(image, roots);
        bool loaded = false;
        ASSERT_TRUE(
            d.server->store(0)->loadStateIfPresent(&loaded, &err))
            << err;
        EXPECT_TRUE(loaded);

        Client c;
        ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
        std::vector<std::uint8_t> got;
        ASSERT_EQ(c.readBlock(0, 512, 256, &got, &err), CallResult::kOk)
            << err;
        EXPECT_EQ(got, block);
        bool clean = false;
        ASSERT_TRUE(c.verifyStore(0, &clean, &err)) << err;
        EXPECT_TRUE(clean);
    }
    std::remove(image.c_str());
    std::remove(roots.c_str());
}

TEST(ServedPersistence, SaveWithoutStatePathsFailsOverTheWire)
{
    Daemon d("nopaths");
    ASSERT_TRUE(d.started) << d.startErr;
    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    EXPECT_FALSE(c.saveStore(0, &err));
    EXPECT_NE(err.find("state paths"), std::string::npos) << err;
    // The failure is a clean error reply; the connection lives on.
    EXPECT_TRUE(c.ping(&err)) << err;
}

} // namespace
} // namespace cmt::serve
