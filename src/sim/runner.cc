#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "cpu/core.h"
#include "mem/main_memory.h"
#include "sim/config.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/thread_annotations.h"
#include "tree/authenticator.h"
#include "tree/hash_engine.h"
#include "tree/l2_controller.h"

namespace cmt
{

namespace
{

/** FNV-1a accumulator with typed, field-tagged folding. */
class Fingerprint
{
  public:
    Fingerprint &
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    Fingerprint &
    u64(std::uint64_t v)
    {
        return bytes(&v, sizeof v);
    }

    Fingerprint &
    f64(double v)
    {
        // Bit pattern, not value: -0.0 vs 0.0 both simulate the same
        // but distinguishing them only costs a spurious cache miss.
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }

    Fingerprint &
    str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

const char *
authKindName(Authenticator::Kind kind)
{
    switch (kind) {
    case Authenticator::Kind::kMd5: return "md5";
    case Authenticator::Kind::kSha1Trunc: return "sha1-trunc";
    case Authenticator::Kind::kXorMac: return "xor-mac";
    }
    return "?";
}

// Parameter-block folds, one helper per embedded struct. Every field
// is preceded by a tag so adjacent same-width fields cannot cancel by
// transposition.

void
foldCore(Fingerprint &fp, const CoreParams &c)
{
    fp.u64(10).u64(c.fetchWidth);
    fp.u64(11).u64(c.issueWidth);
    fp.u64(12).u64(c.commitWidth);
    fp.u64(13).u64(c.windowSize);
    fp.u64(14).u64(c.lsqSize);
    fp.u64(15).u64(c.l1SizeBytes);
    fp.u64(16).u64(c.l1Assoc);
    fp.u64(17).u64(c.l1BlockSize);
    fp.u64(18).u64(c.l1HitLatency);
    fp.u64(19).u64(c.l1dMshrs);
    fp.u64(20).u64(c.aluLatency);
    fp.u64(21).u64(c.mulLatency);
    fp.u64(22).u64(c.fpuLatency);
    fp.u64(23).u64(c.mispredictPenalty);
    fp.u64(24).u64(c.bpredHistoryBits);
    fp.u64(25).u64(c.bpredTableBits);
    fp.u64(26).u64(c.tlbEntries);
    fp.u64(27).u64(c.tlbAssoc);
    fp.u64(28).u64(c.tlbMissPenalty);
}

void
foldL2(Fingerprint &fp, const L2Params &l2)
{
    fp.u64(40).u64(static_cast<std::uint64_t>(l2.scheme));
    fp.u64(41).u64(l2.sizeBytes);
    fp.u64(42).u64(l2.assoc);
    fp.u64(43).u64(l2.blockSize);
    fp.u64(44).u64(l2.chunkSize);
    fp.u64(45).u64(l2.protectedSize);
    fp.u64(46).u64(l2.hitLatency);
    fp.u64(47).u64(l2.readBufferEntries);
    fp.u64(48).u64(l2.writeBufferEntries);
    fp.u64(49).u64(static_cast<std::uint64_t>(l2.authKind));
    fp.u64(50).u64(l2.timestamps ? 1 : 0);
    fp.u64(51).u64(l2.writeAllocNoFetch ? 1 : 0);
    fp.u64(52).u64(l2.speculativeChecks ? 1 : 0);
    fp.u64(53).u64(l2.encryptData ? 1 : 0);
    fp.u64(54).u64(l2.decryptLatency);
    fp.u64(55).bytes(l2.key.data(), l2.key.size());
    // Folded only when sharding is on, so a single-tree config keeps
    // the fingerprint it had before the field existed.
    if (l2.shards != 1)
        fp.u64(56).u64(l2.shards);
}

void
foldMem(Fingerprint &fp, const MemTimingParams &mem)
{
    fp.u64(70).u64(mem.cpuCyclesPerBusCycle);
    fp.u64(71).u64(mem.busWidthBytes);
    fp.u64(72).u64(mem.dramLatency);
}

void
foldHash(Fingerprint &fp, const HashEngineParams &hash)
{
    fp.u64(80).u64(hash.latency);
    fp.u64(81).f64(hash.throughputBytesPerCycle);
}

} // namespace

std::uint64_t
configFingerprint(const SystemConfig &config)
{
    Fingerprint fp;
    fp.u64(1).str(config.benchmark);
    fp.u64(2).u64(config.seed);
    fp.u64(3).u64(config.warmupInstructions);
    fp.u64(4).u64(config.measureInstructions);
    foldCore(fp, config.core);
    foldL2(fp, config.l2);
    foldMem(fp, config.mem);
    foldHash(fp, config.hash);
    return fp.value();
}

SweepRunner::SweepRunner(Options options) : options_(std::move(options))
{
    if (!options_.simulateFn)
        options_.simulateFn = [](const SystemConfig &cfg) {
            return simulate(cfg);
        };
}

std::size_t
SweepRunner::add(std::string label, const SystemConfig &config)
{
    cmt_assert(!ran_);
    jobs_.push_back(SweepJob{std::move(label), config});
    return jobs_.size() - 1;
}

unsigned
SweepRunner::effectiveJobs() const
{
    unsigned n = options_.jobs;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    return n;
}

namespace
{

/** Jobs sharing a fingerprint run once; the leader's result fans out. */
struct MemoGroup
{
    std::size_t leader;
    std::vector<std::size_t> followers;
};

} // namespace

std::size_t
SweepRunner::uniqueJobs() const
{
    std::vector<std::uint64_t> seen;
    std::size_t unique = 0;
    for (const SweepJob &job : jobs_) {
        const std::uint64_t fp = configFingerprint(job.config);
        bool found = false;
        for (const std::uint64_t s : seen)
            found = found || s == fp;
        if (!found) {
            seen.push_back(fp);
            ++unique;
        }
    }
    return unique;
}

const std::vector<SweepEntry> &
SweepRunner::run()
{
    cmt_assert(!ran_);
    ran_ = true;
    entries_.assign(jobs_.size(), SweepEntry{});

    // Group duplicate configs: each group's first submission is the
    // leader and executes; followers copy its entry afterwards, so
    // memoization can never reorder or change any result.
    std::vector<MemoGroup> groups;
    {
        std::vector<std::pair<std::uint64_t, std::size_t>> index;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const std::uint64_t fp = configFingerprint(jobs_[i].config);
            bool merged = false;
            for (const auto &[seen_fp, group] : index) {
                if (seen_fp == fp) {
                    groups[group].followers.push_back(i);
                    merged = true;
                    break;
                }
            }
            if (merged)
                continue;
            index.emplace_back(fp, groups.size());
            groups.push_back(MemoGroup{i, {}});
        }
    }

    const std::size_t total = jobs_.size();
    std::atomic<std::size_t> nextGroup{0};
    std::atomic<std::size_t> done{0};

    const auto runGroup = [&](std::size_t g) {
        const MemoGroup &group = groups[g];
        const SweepJob &job = jobs_[group.leader];
        SweepEntry entry;
        entry.label = job.label;

        try {
            // Panics/fatals inside the simulator surface as SimError
            // here instead of terminating the sweep.
            ScopedThrowOnError guard;
            entry.result = options_.simulateFn(job.config);
        } catch (const std::exception &e) {
            entry.ok = false;
            entry.error = e.what();
            // Keep the row identifiable in tables and JSON.
            entry.result = SimResult{};
            entry.result.benchmark = job.config.benchmark;
            entry.result.scheme = job.config.l2.scheme;
        }

        entries_[group.leader] = entry;
        notifyProgress(entries_[group.leader], done, total);
        for (const std::size_t f : group.followers) {
            entries_[f] = entry;
            entries_[f].label = jobs_[f].label;
            entries_[f].memoized = true;
            notifyProgress(entries_[f], done, total);
        }
    };

    const auto workerLoop = [&] {
        while (true) {
            const std::size_t g = nextGroup.fetch_add(1);
            if (g >= groups.size())
                return;
            runGroup(g);
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(effectiveJobs(),
                              std::max<std::size_t>(groups.size(), 1)));
    if (workers <= 1) {
        workerLoop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            pool.emplace_back(workerLoop);
        for (std::thread &t : pool)
            t.join();
    }
    return entries_;
}

void
SweepRunner::notifyProgress(const SweepEntry &entry,
                            std::atomic<std::size_t> &done,
                            std::size_t total)
{
    if (!options_.progress)
        return;
    // Claiming the counter inside the lock gives callbacks strictly
    // increasing completion counts and spares them any locking of
    // their own.
    MutexLock lock(progressMu_);
    options_.progress(entry, done.fetch_add(1) + 1, total);
}

const SweepEntry &
SweepRunner::entry(std::size_t i) const
{
    cmt_assert(ran_ && i < entries_.size());
    return entries_[i];
}

const SweepJob &
SweepRunner::job(std::size_t i) const
{
    cmt_assert(i < jobs_.size());
    return jobs_[i];
}

Json
toJson(const SimResult &result)
{
    Json obj = Json::object();
    obj.set("benchmark", result.benchmark);
    obj.set("scheme", schemeName(result.scheme));
    obj.set("instructions", result.instructions);
    obj.set("cycles", result.cycles);
    obj.set("ipc", result.ipc);
    obj.set("l2_data_miss_rate", result.l2DataMissRate);
    obj.set("extra_reads_per_miss", result.extraReadsPerMiss);
    obj.set("bandwidth_bytes_per_cycle",
            result.bandwidthBytesPerCycle);
    obj.set("l2_demand_accesses", result.l2DemandAccesses);
    obj.set("l2_demand_misses", result.l2DemandMisses);
    obj.set("integrity_failures", result.integrityFailures);
    obj.set("buffer_stalls", result.bufferStalls);
    obj.set("branch_mispredict_rate", result.branchMispredictRate);
    // SMP and sharded machines only (zero and empty otherwise): the
    // paper's one-core, one-tree rows keep the baselines' shape.
    if (result.verifyBytesPerCycle != 0)
        obj.set("verify_bytes_per_cycle", result.verifyBytesPerCycle);
    if (!result.perCoreIpc.empty()) {
        Json per = Json::array();
        for (const double ipc : result.perCoreIpc)
            per.push(ipc);
        obj.set("per_core_ipc", std::move(per));
    }
    return obj;
}

Json
toJson(const SystemConfig &config)
{
    Json obj = Json::object();
    obj.set("benchmark", config.benchmark);
    obj.set("seed", config.seed);
    obj.set("warmup_instructions", config.warmupInstructions);
    obj.set("measure_instructions", config.measureInstructions);

    Json l2 = Json::object();
    l2.set("scheme", schemeName(config.l2.scheme));
    l2.set("size_bytes", config.l2.sizeBytes);
    l2.set("assoc", config.l2.assoc);
    l2.set("block_size", config.l2.blockSize);
    l2.set("chunk_size", config.l2.chunkSize);
    l2.set("protected_size", config.l2.protectedSize);
    l2.set("hit_latency", config.l2.hitLatency);
    l2.set("read_buffer_entries", config.l2.readBufferEntries);
    l2.set("write_buffer_entries", config.l2.writeBufferEntries);
    l2.set("auth_kind", authKindName(config.l2.authKind));
    l2.set("timestamps", config.l2.timestamps);
    l2.set("write_alloc_no_fetch", config.l2.writeAllocNoFetch);
    l2.set("speculative_checks", config.l2.speculativeChecks);
    l2.set("encrypt_data", config.l2.encryptData);
    l2.set("decrypt_latency", config.l2.decryptLatency);
    // Emitted only when sharding is on, like per_core_ipc: committed
    // baselines compare config dumps byte-for-byte.
    if (config.l2.shards != 1)
        l2.set("shards", config.l2.shards);
    obj.set("l2", std::move(l2));

    Json core = Json::object();
    core.set("fetch_width", config.core.fetchWidth);
    core.set("issue_width", config.core.issueWidth);
    core.set("commit_width", config.core.commitWidth);
    core.set("window_size", config.core.windowSize);
    core.set("lsq_size", config.core.lsqSize);
    core.set("l1_size_bytes", config.core.l1SizeBytes);
    core.set("l1_assoc", config.core.l1Assoc);
    core.set("l1_block_size", config.core.l1BlockSize);
    obj.set("core", std::move(core));

    Json mem = Json::object();
    mem.set("cpu_cycles_per_bus_cycle",
            config.mem.cpuCyclesPerBusCycle);
    mem.set("bus_width_bytes", config.mem.busWidthBytes);
    mem.set("dram_latency", config.mem.dramLatency);
    obj.set("mem", std::move(mem));

    Json hash = Json::object();
    hash.set("latency", config.hash.latency);
    hash.set("throughput_bytes_per_cycle",
             config.hash.throughputBytesPerCycle);
    obj.set("hash", std::move(hash));
    return obj;
}

Json
toJson(const SweepJob &job, const SweepEntry &entry)
{
    Json obj = Json::object();
    obj.set("label", entry.label);
    obj.set("ok", entry.ok);
    if (!entry.ok)
        obj.set("error", entry.error);
    obj.set("config", toJson(job.config));
    obj.set("result", toJson(entry.result));
    return obj;
}

} // namespace cmt
