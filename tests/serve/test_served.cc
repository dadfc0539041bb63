/**
 * @file
 * End-to-end daemon tests: an in-process serve::Server on a unix
 * socket, driven through the client library and through raw byte
 * sequences a buggy or hostile client would produce.
 *
 * Covered here because only a live socket can prove them: protocol
 * edge cases (torn, truncated, zero-length and oversized frames,
 * disconnects mid-request), in-order replies and a bounded reply
 * backlog under pipelined floods, multi-client concurrency
 * equivalence against a serial replay, corruption surfacing as
 * kCorrupt over the wire, and the shutdown -> save -> reload cycle.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
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
                    const MerkleConfig &mc = smallConfig())
        : path(::testing::TempDir() + "/cmt_" + tag + ".sock")
    {
        ServeConfig sc;
        sc.socketPath = path;
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

/**
 * Write a distinct 64-byte tag every 4 KiB of store 0's first
 * @p size bytes through @p c; returns the image those bytes now hold,
 * or nothing on a failed write.
 */
std::vector<std::uint8_t>
writeTags(Client &c, std::uint64_t size, std::string *err)
{
    std::vector<std::uint8_t> image(size, 0);
    for (std::uint64_t addr = 0; addr < size; addr += 4096) {
        const std::vector<std::uint8_t> tag = patternBlock(addr, 64);
        if (c.writeBlock(0, addr, tag, err) != CallResult::kOk)
            return {};
        std::copy(tag.begin(), tag.end(),
                  image.begin() + static_cast<std::ptrdiff_t>(addr));
    }
    return image;
}

/** smallConfig() over 1 MiB, room for many 64 KiB reads. */
MerkleConfig
mibConfig()
{
    MerkleConfig mc = smallConfig();
    mc.protectedSize = 1u << 20;
    return mc;
}

/** Frames reading [addr, addr + len) of store 0, back to back. */
std::vector<std::uint8_t>
pipelinedReads(const std::vector<std::uint64_t> &addrs, std::uint32_t len)
{
    std::vector<std::uint8_t> raw;
    for (const std::uint64_t addr : addrs) {
        std::vector<std::uint8_t> payload;
        appendU32(payload, 0);
        appendU64(payload, addr);
        appendU32(payload, len);
        const std::vector<std::uint8_t> frame =
            frameRequest(Op::kRead, payload);
        raw.insert(raw.end(), frame.begin(), frame.end());
    }
    return raw;
}

/** A kWrite frame putting @p data at @p addr of store 0. */
std::vector<std::uint8_t>
writeFrame(std::uint64_t addr, const std::vector<std::uint8_t> &data)
{
    std::vector<std::uint8_t> payload;
    appendU32(payload, 0);
    appendU64(payload, addr);
    appendU32(payload, static_cast<std::uint32_t>(data.size()));
    payload.insert(payload.end(), data.begin(), data.end());
    return frameRequest(Op::kWrite, payload);
}

/** Concatenate frames into one byte stream, to go out in one send. */
std::vector<std::uint8_t>
pipeline(const std::vector<std::vector<std::uint8_t>> &frames)
{
    std::vector<std::uint8_t> raw;
    for (const std::vector<std::uint8_t> &frame : frames)
        raw.insert(raw.end(), frame.begin(), frame.end());
    return raw;
}

/**
 * Poll the daemon's executed-read count until it has not moved for
 * 200 ms (or 10 s pass) and return it: the number of reads the
 * daemon executes before it stalls on its own.
 */
std::uint64_t
settledReadOps(const Server &server)
{
    std::uint64_t last = server.statsSnapshot().readOps;
    int quiet = 0;
    for (int polls = 0; polls < 500 && quiet < 10; ++polls) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::uint64_t now = server.statsSnapshot().readOps;
        quiet = now == last ? quiet + 1 : 0;
        last = now;
    }
    return last;
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
    // One burst of 64 pipelined reads: replies must arrive exactly in
    // request order.
    Daemon d("flood");
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
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < kBlocks; ++i)
        addrs.push_back(static_cast<std::uint64_t>(i) * 64);
    ASSERT_TRUE(c.sendRaw(pipelinedReads(addrs, 64), &err)) << err;
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

TEST(ServedFraming, PipelinedWritesExecuteInArrivalOrder)
{
    // Writes sent in one burst run one by one, like any other request:
    // a refused write in the middle leaves the ones around it applied.
    Daemon d("pipewrite");
    ASSERT_TRUE(d.started) << d.startErr;
    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;

    const std::vector<std::uint8_t> blockA = patternBlock(31, 64);
    const std::vector<std::uint8_t> blockB = patternBlock(32, 64);
    const std::vector<std::uint8_t> blockC = patternBlock(33, 64);
    const std::uint64_t addrA = 0;
    const std::uint64_t addrB = std::uint64_t{1} << 16; // past the end
    const std::uint64_t addrC = 3 * 16384 + 64;
    ASSERT_TRUE(c.sendRaw(pipeline({writeFrame(addrA, blockA),
                                    writeFrame(addrB, blockB),
                                    writeFrame(addrC, blockC),
                                    pipelinedReads({addrA, addrC}, 64)}),
                          &err))
        << err;

    const Status want[] = {Status::kOk, Status::kError, Status::kOk,
                           Status::kOk, Status::kOk};
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int i = 0; i < 5; ++i) {
        Status status = Status::kError;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(c.recvReply(&status, &payload, &err))
            << "reply " << i << ": " << err;
        EXPECT_EQ(status, want[i])
            << "reply " << i << ": "
            << std::string(payload.begin(), payload.end());
        payloads.push_back(std::move(payload));
    }
    EXPECT_EQ(std::string(payloads[1].begin(), payloads[1].end()),
              "write beyond protected region");
    EXPECT_EQ(payloads[3], blockA);
    EXPECT_EQ(payloads[4], blockC);
}

TEST(ServedFraming, UnreadRepliesStopExecutionAtTheBacklogBound)
{
    // A client pipelines 64 reads of 64 KiB and reads no reply. The
    // daemon must stop executing once kReplyBacklogBytes of replies
    // wait unsent (16 replies) plus what the socket itself buffers
    // (a few more at default socket sizes), not run all 64 and hold
    // 4 MiB for a peer that may never read them.
    Daemon d("backlog", 1, mibConfig());
    ASSERT_TRUE(d.started) << d.startErr;
    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    const std::vector<std::uint8_t> image = writeTags(c, 1u << 20, &err);
    ASSERT_FALSE(image.empty()) << err;

    constexpr int kReads = 64;
    constexpr std::uint32_t kLen = 64 * 1024;
    static_assert(kReplyBacklogBytes / kLen == 16);
    constexpr std::uint64_t kBound = 32;
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < kReads; ++i)
        addrs.push_back(static_cast<std::uint64_t>(i) * 4096);
    const std::uint64_t before = d.server->statsSnapshot().readOps;
    ASSERT_TRUE(c.sendRaw(pipelinedReads(addrs, kLen), &err)) << err;

    const std::uint64_t executed = settledReadOps(*d.server) - before;
    EXPECT_LE(executed, kBound)
        << "the daemon kept executing for a peer that reads nothing";

    // Reading the replies resumes execution: all 64 arrive, whole
    // and in request order.
    for (int i = 0; i < kReads; ++i) {
        Status status = Status::kError;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(c.recvReply(&status, &payload, &err))
            << "reply " << i << ": " << err;
        ASSERT_EQ(status, Status::kOk) << "reply " << i;
        const auto first =
            image.begin() + static_cast<std::ptrdiff_t>(addrs[i]);
        ASSERT_TRUE(payload ==
                    std::vector<std::uint8_t>(first, first + kLen))
            << "reply " << i << " wrong or out of order";
    }
    EXPECT_EQ(d.server->statsSnapshot().readOps - before,
              static_cast<std::uint64_t>(kReads));
    EXPECT_TRUE(c.ping(&err)) << err;
}

TEST(ServedShutdown, AnotherClientsPipelinedRepliesFlushBeforeClose)
{
    // Client A pipelines 8 reads of 64 KiB and reads nothing yet:
    // more reply bytes than the socket buffers, so most still sit in
    // the daemon when client B asks it to shut down. A must still
    // get all 8 replies, then EOF, and the daemon must stop.
    Daemon d("stopflush", 1, mibConfig());
    ASSERT_TRUE(d.started) << d.startErr;
    Client a;
    std::string err;
    ASSERT_TRUE(a.connectTo(d.path, &err)) << err;
    const std::vector<std::uint8_t> image = writeTags(a, 1u << 20, &err);
    ASSERT_FALSE(image.empty()) << err;

    constexpr std::uint64_t kReads = 8;
    constexpr std::uint32_t kLen = 64 * 1024;
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t i = 0; i < kReads; ++i)
        addrs.push_back(i * 12288);
    const std::uint64_t before = d.server->statsSnapshot().readOps;
    ASSERT_TRUE(a.sendRaw(pipelinedReads(addrs, kLen), &err)) << err;
    // Let all 8 execute, so the replies wait in the daemon, not in
    // A's request stream.
    for (int polls = 0;
         polls < 500 && d.server->statsSnapshot().readOps - before < kReads;
         ++polls)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(d.server->statsSnapshot().readOps - before, kReads);

    Client b;
    ASSERT_TRUE(b.connectTo(d.path, &err)) << err;
    ASSERT_TRUE(b.shutdownServer(&err)) << err;

    for (std::uint64_t i = 0; i < kReads; ++i) {
        Status status = Status::kError;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(a.recvReply(&status, &payload, &err))
            << "reply " << i << ": " << err;
        ASSERT_EQ(status, Status::kOk) << "reply " << i;
        const auto first =
            image.begin() + static_cast<std::ptrdiff_t>(addrs[i]);
        ASSERT_TRUE(payload ==
                    std::vector<std::uint8_t>(first, first + kLen))
            << "reply " << i;
    }
    Status status = Status::kOk;
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(a.recvReply(&status, &payload, &err))
        << "connection still open after the drain";
    d.server->waitUntilStopped();
    EXPECT_FALSE(d.server->running());
}

TEST(ServedShutdown, PeerThatNeverReadsCannotHoldTheStop)
{
    // A client pipelines 64 reads of 64 KiB and never reads a reply,
    // so the daemon's backlog of unsent replies never drains. The
    // stop must still finish: the stalled connection is dropped once
    // its replies have not moved for kStopStallLimit.
    Daemon d("stopstall", 1, mibConfig());
    ASSERT_TRUE(d.started) << d.startErr;
    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t i = 0; i < 64; ++i)
        addrs.push_back(i * 4096);
    ASSERT_TRUE(c.sendRaw(pipelinedReads(addrs, 64 * 1024), &err)) << err;
    ASSERT_GT(settledReadOps(*d.server), 0u);

    std::thread stopper([&d] {
        d.server->requestStop();
        d.server->waitUntilStopped();
    });
    const auto deadline = std::chrono::steady_clock::now() +
                          kStopStallLimit + std::chrono::seconds(3);
    while (d.server->running() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(d.server->running())
        << "stop still waiting on a peer that never reads";
    // Closing the client lets a daemon that missed the deadline exit.
    c.disconnect();
    stopper.join();
}

TEST(ServedConcurrency, ParallelClientsMatchSerialReplayByteForByte)
{
    // Four clients hammer store 0 concurrently over disjoint slices
    // while one client later replays the identical traces serially
    // into store 1. Slice disjointness makes the interleaving
    // immaterial, so both stores must end byte-identical. This is
    // the daemon's parallel-equals-serial proof; cmt_loadgen only
    // checks each client's reads against its own writes.
    Daemon d("parclients", 2);
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

TEST(ServedIntegrity, CorruptWriteDoesNotAbortTheNextOne)
{
    // A write that meets tampered RAM fails alone: the write pipelined
    // behind it, to a later shard, still runs, and the tampered chunk
    // keeps its old bytes.
    Daemon d("corruptwrite", 1, smallConfig(4, 0));
    ASSERT_TRUE(d.started) << d.startErr;
    Client c;
    std::string err;
    ASSERT_TRUE(c.connectTo(d.path, &err)) << err;

    const std::uint64_t addrX = 128;         // shard 0
    const std::uint64_t addrY = 3 * 16384;   // shard 3
    const std::vector<std::uint8_t> x = patternBlock(41, 64);
    const std::vector<std::uint8_t> x2 = patternBlock(42, 64);
    const std::vector<std::uint8_t> y = patternBlock(43, 64);
    ASSERT_EQ(c.writeBlock(0, addrX, x, &err), CallResult::kOk) << err;

    MerkleMemory &mm = d.server->store(0)->memoryForTest();
    ASSERT_LT(mm.tree().shardOfData(addrX), mm.tree().shardOfData(addrY));
    Adversary adv(mm.ram());
    const std::uint64_t ramAddr = mm.tree().dataToRam(addrX);
    adv.flipBit(ramAddr, 3);

    ASSERT_TRUE(c.sendRaw(pipeline({writeFrame(addrX, x2),
                                    writeFrame(addrY, y),
                                    pipelinedReads({addrY}, 64)}),
                          &err))
        << err;
    const Status want[] = {Status::kCorrupt, Status::kOk, Status::kOk};
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 3; ++i) {
        Status status = Status::kError;
        ASSERT_TRUE(c.recvReply(&status, &payload, &err))
            << "reply " << i << ": " << err;
        EXPECT_EQ(status, want[i])
            << "reply " << i << ": "
            << std::string(payload.begin(), payload.end());
    }
    EXPECT_EQ(payload, y);

    adv.flipBit(ramAddr, 3);
    std::vector<std::uint8_t> got;
    ASSERT_EQ(c.readBlock(0, addrX, 64, &got, &err), CallResult::kOk)
        << err;
    EXPECT_EQ(got, x);
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
