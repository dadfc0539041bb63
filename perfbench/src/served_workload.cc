/**
 * @file
 * Daemon workloads: served_hot_64b and served_scatter_4k.
 *
 * The real cmt_served binary runs as a child process and is driven
 * through serve::Client from this process: two connections, each on
 * its own thread, each closed-loop (one request outstanding) on its
 * own disjoint slice of the store, so a per-connection shadow copy
 * checks every byte a read returns. Every daemon starts with --load
 * from a snapshot in which every block holds seed-derived content;
 * the snapshot is prepared once per run, outside the timed regions,
 * and the daemon that will shut down (and save over its state) gets a
 * real copy of it.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "calibration.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/store.h"
#include "shadow.h"
#include "verify/merkle_memory.h"
#include "workloads.h"

namespace perfbench
{

using namespace cmt;
namespace fs = std::filesystem;

namespace
{

struct ServedSpec
{
    const char *name;
    std::uint64_t protectedSize;
    unsigned cacheChunks;
    std::uint32_t opBytes;
    unsigned writePct;
    /** Ops replayed in-process by the traced run (fixed, so the
     *  verify-layer counts repeat exactly for a seed). */
    std::size_t replayOps;
    /** Daemon starts per run; setup_s is their median. */
    unsigned setupSpawns;
    /** Calibrate by the CPU kernel (the store's compute sets the pace)
     *  rather than by ping-pong (wake-ups set the pace). */
    bool computeBound;
};

constexpr ServedSpec kServedSpecs[] = {
    // 256 KiB store that the 8192-chunk trusted cache holds whole:
    // the store layer is ~1% of a round trip.
    {"served_hot_64b", 256u << 10, 8192, 64, 20, 20000, 21, false},
    // 64 MiB store, default 64-chunk cache: every 4 KiB op misses on
    // ~64 chunks plus their ancestors.
    {"served_scatter_4k", 64u << 20, 64, 4096, 55, 2000, 7, true},
};

constexpr unsigned kConnections = 2;
/** Request spans kept per connection for a traced run's span file. */
constexpr std::size_t kMaxKeptSpans = 100000;

const ServedSpec *
findSpec(const std::string &name)
{
    for (const ServedSpec &s : kServedSpecs) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

/** The daemon's store geometry: cmt_served defaults plus the spec. */
MerkleConfig
storeConfig(const ServedSpec &spec)
{
    MerkleConfig mc;
    mc.protectedSize = spec.protectedSize;
    mc.cacheChunks = spec.cacheChunks;
    mc.shards = 4;
    return mc;
}

std::string
imagePath(const std::string &dir)
{
    return dir + "/store0.image";
}

std::string
rootsPath(const std::string &dir)
{
    return dir + "/store0.roots";
}

/** fdatasync @p path so its dirty pages are on disk now. */
bool
flushToDisk(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const bool ok = ::fdatasync(fd) == 0;
    ::close(fd);
    return ok;
}

/** Write the seed-derived content into every block and save it. */
bool
prepareSnapshot(const ServedSpec &spec, std::uint64_t seed,
                const std::string &dir, std::string *err)
{
    MerkleConfig mc = storeConfig(spec);
    // A large trusted cache makes the sequential fill cheap; the saved
    // image and roots do not depend on the cache size.
    mc.cacheChunks = 1u << 16;
    std::error_code ec;
    fs::create_directories(dir, ec);
    serve::ServeStore store("store0", mc);
    store.setStatePaths(imagePath(dir), rootsPath(dir));
    std::vector<std::uint8_t> block(4096);
    for (std::uint64_t addr = 0; addr < store.size(); addr += block.size()) {
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(block.size(), store.size() - addr));
        std::span<std::uint8_t> view(block.data(), len);
        fillInitialContent(seed, addr, view);
        store.memoryForTest().store(addr, view);
    }
    return store.saveState(err) && flushToDisk(imagePath(dir)) &&
           flushToDisk(rootsPath(dir));
}

/**
 * Give @p to the snapshot in @p from. A daemon that will shut down
 * (and save over its state) gets a real copy, flushed so its
 * write-back cannot overlap the measured window; one that is only
 * started and killed, or a store that only loads, shares the files
 * through hard links.
 */
bool
copySnapshot(const std::string &from, const std::string &to, bool real)
{
    std::error_code ec;
    fs::create_directories(to, ec);
    for (const std::string &file : {imagePath(from), rootsPath(from)}) {
        const fs::path dest = fs::path(to) / fs::path(file).filename();
        fs::remove(dest, ec);
        if (real)
            fs::copy_file(file, dest, ec);
        else
            fs::create_hard_link(file, dest, ec);
        if (ec || (real && !flushToDisk(dest.string())))
            return false;
    }
    return true;
}

/** One cmt_served child; killed and reaped if still running when the
 *  handle goes away. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon() { kill(); }

    /**
     * Start the daemon on a fresh copy of the snapshot and poll its
     * socket (every 200 us) until a ping succeeds. @return the
     * seconds from spawn to that first ping, or nothing on failure.
     */
    std::optional<double>
    start(const RunOptions &opt, const ServedSpec &spec,
          const std::string &state_dir, const std::string &socket)
    {
        socket_ = socket;
        const auto t0 = Clock::now();
        std::string err;
        pid_ = spawnProcess(
            {opt.binDir + "/cmt_served", "--socket", socket,
             "--protected-size", std::to_string(spec.protectedSize),
             "--cache-chunks", std::to_string(spec.cacheChunks),
             "--state-dir", state_dir, "--load"},
            opt.workDir + "/cmt_served.log", &err);
        if (pid_ < 0) {
            std::printf("FAIL: %s\n", err.c_str());
            return std::nullopt;
        }
        serve::Client probe;
        while (true) {
            if (probe.connectTo(socket, &err) && probe.ping(&err))
                return secondsBetween(t0, Clock::now());
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                std::printf("FAIL: cmt_served exited during start-up "
                            "(see cmt_served.log)\n");
                return std::nullopt;
            }
            if (secondsBetween(t0, Clock::now()) > 60) {
                std::printf("FAIL: cmt_served not answering: %s\n",
                            err.c_str());
                return std::nullopt;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /** Ask for a graceful shutdown (which saves the store) and reap;
     *  @return true when the daemon exited 0. */
    bool
    shutdown()
    {
        serve::Client c;
        std::string err;
        const bool asked =
            c.connectTo(socket_, &err) && c.shutdownServer(&err);
        const int code = waitProcess(pid_);
        pid_ = -1;
        return asked && code == 0;
    }

    void
    kill()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitProcess(pid_);
            pid_ = -1;
        }
    }

    int pid() const { return pid_; }

  private:
    int pid_ = -1;
    std::string socket_;
};

/** One request as issued (the traced run replays these in-process). */
struct OpRecord
{
    bool write = false;
    std::uint64_t addr = 0;
    std::vector<std::uint8_t> data; ///< write payload
};

/** One client connection: its own Client, slice, shadow and op
 *  stream, driven by one thread at a time. */
class Connection
{
  public:
    Connection(const RunOptions &opt, const ServedSpec &spec, unsigned id,
               std::uint64_t slice_base, std::uint64_t slice_size)
        : spec_(spec), id_(id), shadow_(opt.seed, slice_base, slice_size),
          rng_(opt.seed * 0x2545f4914f6cdd1dull + id + 1),
          slots_(slice_size / spec.opBytes), data_(spec.opBytes)
    {}

    bool connect(const std::string &socket)
    {
        return client_.connectTo(socket, &error);
    }

    /**
     * Closed loop until @p end: one request outstanding, the next
     * issued when its reply arrives. With @p measure, RTTs of
     * successful requests are kept; with @p trace, request spans too.
     * The first @p keep_ops requests are recorded for the replay.
     */
    void
    run(Clock::time_point end, bool measure, bool trace,
        std::size_t keep_ops)
    {
        std::string err;
        while (!lost_ && Clock::now() < end) {
            const bool write = splitmix64(rng_) % 100 < spec_.writePct;
            const std::uint64_t addr =
                shadow_.base() + (splitmix64(rng_) % slots_) * spec_.opBytes;
            if (write) {
                for (std::size_t i = 0; i < data_.size(); i += 8) {
                    const std::uint64_t w = splitmix64(rng_);
                    std::memcpy(data_.data() + i, &w, 8);
                }
            }
            if (ops.size() < keep_ops)
                ops.push_back(OpRecord{
                    write, addr,
                    write ? data_ : std::vector<std::uint8_t>{}});

            ++attempted;
            const auto t0 = Clock::now();
            const serve::CallResult r =
                write ? client_.writeBlock(0, addr, data_, &err)
                      : client_.readBlock(0, addr, spec_.opBytes, &reply_,
                                          &err);
            const auto t1 = Clock::now();
            bool ok = r == serve::CallResult::kOk;
            if (ok && write)
                shadow_.apply(addr, data_);
            if (ok && !write && !shadow_.matches(addr, reply_)) {
                ok = false;
                err = "read disagrees with the shadow copy";
            }
            if (!ok) {
                ++failed;
                error = err;
                lost_ = r == serve::CallResult::kLost;
                continue;
            }
            if (!measure)
                continue;
            const double us =
                std::chrono::duration<double, std::micro>(t1 - t0).count();
            lastEnd = t1;
            rttUs.push_back(us);
            isWrite.push_back(write);
            if (trace && spans.size() < kMaxKeptSpans)
                spans.push_back({write, t0, t1});
        }
    }

    unsigned id() const { return id_; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;
    /** Measured requests, in issue order. */
    std::vector<double> rttUs;
    std::vector<bool> isWrite;
    Clock::time_point lastEnd{};
    struct Span
    {
        bool write;
        Clock::time_point start, end;
    };
    std::vector<Span> spans;
    std::vector<OpRecord> ops;

  private:
    const ServedSpec &spec_;
    unsigned id_;
    ShadowSlice shadow_;
    std::uint64_t rng_;
    std::uint64_t slots_;
    std::vector<std::uint8_t> data_;
    std::vector<std::uint8_t> reply_;
    serve::Client client_;
    bool lost_ = false;
};

/** One measured request. */
struct Sample
{
    double us;
    bool write;
    bool traced;
    std::size_t window;
};

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Run every connection on its own thread until @p end. */
void
runConnections(std::vector<std::unique_ptr<Connection>> &conns,
               Clock::time_point end, bool measure, bool trace,
               std::size_t keep_ops)
{
    std::vector<std::thread> threads;
    for (auto &c : conns)
        threads.emplace_back([&c, end, measure, trace, keep_ops] {
            c->run(end, measure, trace, keep_ops);
        });
    for (std::thread &t : threads)
        t.join();
}

/** Merge the connections' first ops, alternating (slices are
 *  disjoint, so any interleaving yields the same data). */
std::vector<OpRecord>
mergedOps(std::vector<std::unique_ptr<Connection>> &conns,
          std::size_t limit)
{
    std::vector<OpRecord> ops;
    for (std::size_t i = 0; ops.size() < limit; ++i) {
        bool any = false;
        for (auto &c : conns) {
            if (i < c->ops.size() && ops.size() < limit) {
                ops.push_back(std::move(c->ops[i]));
                any = true;
            }
        }
        if (!any)
            break;
    }
    return ops;
}

/** The traced run's in-process measurements of the store layers. */
struct StoreReplay
{
    std::vector<double> loadStateS;
    std::vector<double> storeReadUs, storeWriteUs; ///< ServeStore API
    std::vector<double> memLoadUs, memStoreUs;     ///< MerkleMemory alone
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    std::uint64_t authComputes = 0, untrustedReads = 0;
    unsigned treeLevels = 0;
    std::uint64_t failed = 0;
};

/**
 * Replay @p ops on an in-process ServeStore loaded from the snapshot:
 * once through the ServeStore API (lock + validation + MerkleMemory),
 * once more from a fresh load against MerkleMemory directly. Reads are
 * checked against a shadow of the whole store.
 */
bool
replayOnStore(const RunOptions &opt, const ServedSpec &spec,
              const std::string &snapshot, const std::vector<OpRecord> &ops,
              StoreReplay *out)
{
    for (int pass = 0; pass < 2; ++pass) {
        const std::string dir =
            opt.workDir + "/replay" + std::to_string(pass);
        if (!copySnapshot(snapshot, dir, false))
            return false;
        serve::ServeStore store("store0", storeConfig(spec));
        store.setStatePaths(imagePath(dir), rootsPath(dir));
        bool loaded = false;
        std::string err;
        const auto t0 = Clock::now();
        if (!store.loadStateIfPresent(&loaded, &err) || !loaded) {
            std::printf("FAIL: loading the snapshot in-process: %s\n",
                        err.c_str());
            return false;
        }
        out->loadStateS.push_back(secondsBetween(t0, Clock::now()));
        MerkleMemory &mem = store.memoryForTest();
        out->treeLevels = mem.layout().levels();
        ShadowSlice shadow(opt.seed, 0, store.size());
        const std::uint64_t hits0 = mem.statCacheHits.value();
        const std::uint64_t miss0 = mem.statCacheMisses.value();
        const std::uint64_t auth0 = mem.statAuthComputes.value();
        const std::uint64_t reads0 = mem.statUntrustedReads.value();
        std::vector<std::uint8_t> buf(spec.opBytes);
        std::vector<serve::StoreOutcome> per_op;
        for (const OpRecord &op : ops) {
            const auto s = Clock::now();
            bool ok = true;
            if (pass == 0 && op.write) {
                const serve::WriteOp w{op.addr, op.data};
                ok = store.applyWriteBatch({&w, 1}, &per_op, &err) ==
                     serve::StoreOutcome::kOk;
            } else if (pass == 0) {
                ok = store.read(op.addr, spec.opBytes, &buf, &err) ==
                     serve::StoreOutcome::kOk;
            } else if (op.write) {
                mem.store(op.addr, op.data);
            } else {
                mem.load(op.addr, buf);
            }
            const double us = std::chrono::duration<double, std::micro>(
                                  Clock::now() - s)
                                  .count();
            if (op.write) {
                shadow.apply(op.addr, op.data);
            } else if (!shadow.matches(op.addr, buf)) {
                ok = false;
            }
            if (!ok)
                ++out->failed;
            auto &samples = pass == 0
                                ? (op.write ? out->storeWriteUs
                                            : out->storeReadUs)
                                : (op.write ? out->memStoreUs
                                            : out->memLoadUs);
            samples.push_back(us);
        }
        if (pass == 1) {
            out->cacheHits = mem.statCacheHits.value() - hits0;
            out->cacheMisses = mem.statCacheMisses.value() - miss0;
            out->authComputes = mem.statAuthComputes.value() - auth0;
            out->untrustedReads = mem.statUntrustedReads.value() - reads0;
        }
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    return true;
}

/** frameNs publishes each parse here so none can be optimised away. */
std::atomic<std::uint64_t> frameSink{0};

/** Host cost of framing: frameRequest + WireReader over @p ops. */
double
frameNs(const std::vector<OpRecord> &ops, std::uint32_t op_bytes)
{
    std::uint64_t frames = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed < 0.02 && !ops.empty()) {
        for (const OpRecord &op : ops) {
            std::vector<std::uint8_t> payload;
            serve::appendU32(payload, 0);
            serve::appendU64(payload, op.addr);
            serve::appendU32(payload, op_bytes);
            if (op.write)
                payload.insert(payload.end(), op.data.begin(),
                               op.data.end());
            const std::vector<std::uint8_t> frame = serve::frameRequest(
                op.write ? serve::Op::kWrite : serve::Op::kRead, payload);
            serve::WireReader r(std::span<const std::uint8_t>(frame).subspan(
                serve::kHeaderBytes + 1));
            std::uint32_t store = 0, len = 0;
            std::uint64_t addr = 0;
            std::span<const std::uint8_t> body;
            r.u32(&store);
            r.u64(&addr);
            r.u32(&len);
            if (op.write)
                r.bytes(len, &body);
            // Publish the parse so the compiler cannot drop it.
            frameSink.fetch_add(addr + body.size() + (r.done() ? 1 : 0),
                                std::memory_order_relaxed);
            ++frames;
        }
        elapsed = secondsBetween(start, Clock::now());
    }
    return frames == 0 ? 0 : elapsed * 1e9 / static_cast<double>(frames);
}

} // namespace

bool
isServedWorkload(const std::string &name)
{
    return findSpec(name) != nullptr;
}

RunOutcome
runServedWorkload(const RunOptions &opt)
{
    const ServedSpec &spec = *findSpec(opt.workload);
    RunOutcome out;
    const auto fail = [&](const char *why) {
        std::printf("FAIL: %s\n", why);
        out.correct = false;
        ++out.failed;
        out.attempted = std::max(out.attempted, out.failed);
        return out;
    };

    std::printf("workload %s: cmt_served (4 shards, 2 workers), %llu-byte "
                "store, %u-chunk trusted cache, %u connections closed-loop,"
                " %u-byte ops, %u%% writes, seed %llu\n",
                spec.name,
                static_cast<unsigned long long>(spec.protectedSize),
                spec.cacheChunks, kConnections, spec.opBytes, spec.writePct,
                static_cast<unsigned long long>(opt.seed));

    // Untimed: the snapshot every daemon of this run starts from.
    const std::string snapshot = opt.workDir + "/snapshot";
    std::string err;
    if (!prepareSnapshot(spec, opt.seed, snapshot, &err))
        return fail(("preparing the snapshot: " + err).c_str());

    // setup_s: spawn to first ping, several times; the last daemon
    // serves the measured traffic.
    std::vector<double> setup;
    Daemon daemon;
    std::string socket, state;
    std::error_code ec;
    for (unsigned i = 0; i < spec.setupSpawns; ++i) {
        daemon.kill();
        if (!state.empty())
            fs::remove_all(state, ec);
        state = opt.workDir + "/state" + std::to_string(i);
        if (!copySnapshot(snapshot, state, i + 1 == spec.setupSpawns))
            return fail("copying the snapshot");
        socket = opt.workDir + "/d" + std::to_string(i) + ".sock";
        const std::optional<double> s =
            daemon.start(opt, spec, state, socket);
        if (!s)
            return fail("starting cmt_served");
        setup.push_back(*s);
    }

    // Traffic: a short warm-up, then the measured phase in windows of
    // about a second, each followed by a calibration sample taken while
    // the connections are idle. A traced run keeps request spans over
    // the second half.
    const std::uint64_t slice = spec.protectedSize / kConnections;
    std::vector<std::unique_ptr<Connection>> conns;
    for (unsigned c = 0; c < kConnections; ++c) {
        conns.push_back(
            std::make_unique<Connection>(opt, spec, c, c * slice, slice));
        if (!conns.back()->connect(socket))
            return fail(("connecting: " + conns.back()->error).c_str());
    }
    const std::size_t keep_ops = opt.trace ? spec.replayOps : 0;
    runConnections(conns,
                   Clock::now() + toDuration(std::min(1.0, opt.seconds / 5)),
                   false, false, keep_ops);
    const std::size_t windows = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(opt.seconds)));
    // One calibration sample per window edge: the ping-pong mean and
    // median round trips, or the CPU kernel's time for both when the
    // store's compute sets the pace.
    CalibrationKernel kernel;
    const auto sample = [&]() -> PingPong {
        if (!spec.computeBound)
            return pingPongSample();
        const double k = kernel.sample();
        return {k, k};
    };
    const double ref =
        spec.computeBound ? kRefKernelSeconds : kRefPingPongSeconds;
    std::vector<PingPong> calib{sample()};
    std::vector<Sample> samples;
    std::vector<double> window_s;
    std::vector<std::size_t> taken(kConnections, 0);
    for (std::size_t w = 0; w < windows; ++w) {
        const auto start = Clock::now();
        const bool traced = opt.trace && 2 * w >= windows;
        runConnections(conns, start + toDuration(opt.seconds / windows),
                       true, traced, keep_ops);
        Clock::time_point last = start;
        for (unsigned c = 0; c < kConnections; ++c) {
            Connection &conn = *conns[c];
            last = std::max(last, conn.lastEnd);
            for (std::size_t i = taken[c]; i < conn.rttUs.size(); ++i)
                samples.push_back(Sample{conn.rttUs[i], conn.isWrite[i],
                                         traced, w});
            taken[c] = conn.rttUs.size();
        }
        window_s.push_back(secondsBetween(start, last));
        calib.push_back(sample());
    }
    for (auto &c : conns) {
        out.attempted += c->attempted;
        out.failed += c->failed;
        if (!c->error.empty())
            std::printf("connection error: %s\n", c->error.c_str());
    }

    // Final checks: a clean whole-tree verification, then the
    // daemon's own counters and peak memory before it shuts down.
    serve::Client admin;
    bool clean = false;
    serve::ServerStats stats;
    ++out.attempted;
    if (!admin.connectTo(socket, &err) ||
        !admin.verifyStore(0, &clean, &err) || !clean) {
        std::printf("FAIL: final verifyStore not clean %s\n", err.c_str());
        ++out.failed;
    }
    if (!admin.fetchStats(&stats, &err))
        std::printf("note: kStats failed: %s\n", err.c_str());
    admin.disconnect();
    const double daemon_rss_mb =
        static_cast<double>(peakRssBytes(daemon.pid())) / (1 << 20);
    ++out.attempted;
    if (!daemon.shutdown()) {
        std::printf("FAIL: cmt_served did not shut down cleanly\n");
        ++out.failed;
    }
    fs::remove_all(state, ec);

    // Per-window throughput and median RTT, calibrated by the samples
    // on either side of the window. The run reports the median window
    // of each, so a burst of outside contention that spans a few
    // windows does not move the result.
    std::vector<double> rtt;
    std::vector<std::vector<double>> window_rtt(windows);
    for (const Sample &s : samples) {
        rtt.push_back(s.us);
        window_rtt[s.window].push_back(s.us);
    }
    std::vector<double> means, medians;
    for (const PingPong &p : calib) {
        means.push_back(p.meanS);
        medians.push_back(p.medianS);
    }
    std::vector<double> window_ops, window_p50, raw_ops, raw_p50;
    bool windows_ok = true;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::optional<double> p = percentile(window_rtt[w], 50);
        windows_ok = windows_ok && p && window_s[w] > 0 && means[w] > 0 &&
                     means[w + 1] > 0;
        const double ops =
            window_s[w] > 0 ? window_rtt[w].size() / window_s[w] : 0;
        raw_ops.push_back(ops);
        raw_p50.push_back(p.value_or(0));
        window_ops.push_back(
            ops / calibrationFactor(means, w, ref));
        window_p50.push_back(
            p.value_or(0) *
            calibrationFactor(medians, w, ref));
    }
    const std::optional<double> p50 = percentile(rtt, 50);
    const std::optional<double> p99 = percentile(rtt, 99);
    std::printf("requests %llu attempted, %llu failed; %zu latency "
                "samples in %zu windows\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), rtt.size(),
                windows);
    if (!windows_ok || !p50) {
        out.correct = false;
        std::printf("FAIL: a window has too few samples for a median\n");
    }
    printLine("uncalibrated ops_per_s", median(raw_ops), "1/s");
    printLine("uncalibrated latency_p50_us", median(raw_p50), "us");
    printLine(spec.computeBound ? "CPU kernel sample"
                                : "ping-pong mean round trip",
              median(means) * 1e6, "us", "median over samples");
    if (!spec.computeBound)
        printLine("ping-pong median round trip", median(medians) * 1e6,
                  "us", "median over samples");
    printLine("all-window latency_p50_us", p50.value_or(0), "us");
    if (p99)
        printLine("all-window latency_p99_us", *p99, "us",
                  std::to_string(rtt.size() - static_cast<std::size_t>(
                                                  std::ceil(0.99 * rtt.size()))) +
                      " samples beyond");
    else
        std::printf("  latency_p99_us refused: fewer than 10 samples "
                    "beyond it\n");

    if (!opt.trace) {
        out.metrics = {
            {"ops_per_s", median(window_ops)},
            {"latency_p50_us", median(window_p50)},
            {"setup_s", median(setup)},
            {"peak_rss_mb", daemon_rss_mb},
        };
        out.correct = out.correct && out.failed == 0;
        fs::remove_all(snapshot, ec);
        return out;
    }

    // ---- traced run: per-layer numbers --------------------------------
    SpanRecorder rec;
    for (auto &c : conns) {
        for (const Connection::Span &s : c->spans)
            rec.record(s.write ? "serve.write" : "serve.read", s.start,
                       s.end, c->id());
    }
    std::vector<double> untraced_rtt, traced_rtt, read_rtt, write_rtt;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        (samples[i].traced ? traced_rtt : untraced_rtt).push_back(rtt[i]);
        (samples[i].write ? write_rtt : read_rtt).push_back(rtt[i]);
    }

    std::vector<OpRecord> ops = mergedOps(conns, spec.replayOps);
    StoreReplay replay;
    if (!replayOnStore(opt, spec, snapshot, ops, &replay))
        return fail("in-process store replay");
    out.attempted += ops.size() * 2;
    out.failed += replay.failed;

    std::vector<double> store_all = replay.storeReadUs;
    store_all.insert(store_all.end(), replay.storeWriteUs.begin(),
                     replay.storeWriteUs.end());
    const double rtt_p50 = p50.value_or(0);
    const double store_p50 = median(store_all);
    double store_mean = 0;
    for (double us : store_all)
        store_mean += us / static_cast<double>(store_all.size());
    const double setup_med = median(setup);
    const double load_state = median(replay.loadStateS);

    auto &m = out.metrics;
    m["crypto.md5_ns_per_chunk"] = md5NsPerChunk(replay.treeLevels, 64);
    m["serve.store_pct"] = 100.0 * store_p50 / rtt_p50;
    m["serve.outside_store_pct"] = 100.0 * (rtt_p50 - store_p50) / rtt_p50;
    m["serve.store_busy_pct"] =
        100.0 * median(raw_ops) * store_mean * 1e-6;
    m["serve.rtt_p99_over_p50"] = p99 && p50 ? *p99 / *p50 : 0;
    m["serve.requests"] = static_cast<double>(stats.requests);
    m["serve.bytes_in"] = static_cast<double>(stats.bytesIn);
    m["serve.bytes_out"] = static_cast<double>(stats.bytesOut);
    m["verify.cache_hits"] = static_cast<double>(replay.cacheHits);
    m["verify.cache_misses"] = static_cast<double>(replay.cacheMisses);
    m["verify.auth_computes"] = static_cast<double>(replay.authComputes);
    m["verify.untrusted_reads"] = static_cast<double>(replay.untrustedReads);
    m["verify.load_state_pct"] = 100.0 * load_state / setup_med;
    m["bench.calib_ns"] = median(means) * 1e9;
    m["bench.trace_overhead"] = median(traced_rtt) / median(untraced_rtt);
    if (!p99) {
        out.correct = false;
        std::printf("FAIL: p99 has fewer than 10 samples beyond it\n");
    }

    std::printf("per-layer times:\n");
    printLine("serve.read_rtt_p50_us",
              median(read_rtt), "us");
    printLine("serve.write_rtt_p50_us",
              median(write_rtt), "us");
    printLine("serve.frame_ns", frameNs(ops, spec.opBytes), "ns",
              "frameRequest + WireReader");
    printLine("serve.outside_store_us", rtt_p50 - store_p50, "us",
              "RTT p50 - store p50: framing, epoll, hand-off, lock wait");
    printLine("serve.store_read_us", median(replay.storeReadUs), "us",
              "ServeStore::read, " + std::to_string(ops.size()) +
                  " replayed ops");
    printLine("serve.store_write_us", median(replay.storeWriteUs), "us",
              "ServeStore::applyWriteBatch");
    printLine("verify.load_us", median(replay.memLoadUs), "us",
              "MerkleMemory::load");
    printLine("verify.store_us", median(replay.memStoreUs), "us",
              "MerkleMemory::store");
    printLine("verify.load_state_s", load_state, "s",
              "ServeStore::loadStateIfPresent");
    printLine("setup_s (median of spawns)", setup_med, "s");
    const std::string span_path =
        opt.workDir + "/spans-" + opt.workload + ".tsv";
    if (rec.writeTo(span_path))
        std::printf("spans: %zu records in %s\n", rec.spanCount(),
                    span_path.c_str());
    out.correct = out.correct && out.failed == 0;
    fs::remove_all(snapshot, ec);
    return out;
}

} // namespace perfbench
