/**
 * @file
 * Simulator workloads: sim_naive_swim and sim_cached_twolf.
 *
 * A run repeats identical units, each one whole simulate() of the
 * Table 1 machine (construct + warmup + measured window: the cost of
 * one figure-sweep row), each followed by one calibration sample.
 * Repeated System::run() calls on one live System do not split a
 * window into slices (they simulate more cycles than one long
 * window), so the unit cannot be smaller than a whole simulation.
 *
 * The traced run assembles the machine itself from the classes System
 * wires, so it can put spans around Core::tick, EventQueue::runUntil,
 * TraceSource::next and the IntegrityPolicy miss/eviction entry points
 * without touching the simulator's sources.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "calibration.h"
#include "crypto/md5.h"
#include "sim/config.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "support/json.h"
#include "trace/specgen.h"
#include "tree/integrity_policy.h"
#include "tree/scheme.h"
#include "workloads.h"

namespace perfbench
{

using namespace cmt;

namespace
{

struct SimSpec
{
    const char *name;
    const char *benchmark;
    Scheme scheme;
};

constexpr SimSpec kSimSpecs[] = {
    {"sim_naive_swim", "swim", Scheme::kNaive},
    {"sim_cached_twolf", "twolf", Scheme::kCached},
};

const SimSpec *
findSpec(const std::string &name)
{
    for (const SimSpec &s : kSimSpecs) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

/** Table 1 defaults for @p spec; windows honour REPRO_SCALE like every
 *  figure harness (smoke tests shrink them, real runs leave it unset). */
SystemConfig
configFor(const SimSpec &spec, Scheme scheme, std::uint64_t seed)
{
    SystemConfig c;
    c.benchmark = spec.benchmark;
    c.l2.scheme = scheme;
    c.seed = seed;
    c.scale(reproScale());
    return c;
}

std::string
resultText(const SimResult &r)
{
    return toJson(r).dump();
}

/** Timings of one untraced unit. */
struct UnitTiming
{
    double constructS = 0;
    double runS = 0;
    double unitS = 0;
    std::uint64_t committed = 0;
};

UnitTiming
runUnit(const SystemConfig &cfg, SimResult *out)
{
    UnitTiming t;
    const auto t0 = Clock::now();
    {
        System system(cfg);
        const auto t1 = Clock::now();
        *out = system.run();
        const auto t2 = Clock::now();
        t.constructS = secondsBetween(t0, t1);
        t.runS = secondsBetween(t1, t2);
        t.committed = system.core().committed();
    }
    t.unitS = secondsBetween(t0, Clock::now());
    return t;
}

/** Check one unit's result; prints the reason on failure. */
bool
unitCorrect(const SystemConfig &cfg, const SimResult &r,
            const std::string &text, const std::string &reference)
{
    if (r.integrityFailures != 0) {
        std::printf("FAIL: %llu integrity failures\n",
                    static_cast<unsigned long long>(r.integrityFailures));
        return false;
    }
    // The window ends on the cycle that commits its last instruction,
    // so it may overshoot by less than one commit group.
    if (r.instructions < cfg.measureInstructions ||
        r.instructions >= cfg.measureInstructions + cfg.core.commitWidth) {
        std::printf("FAIL: measured %llu instructions for a window of "
                    "%llu\n",
                    static_cast<unsigned long long>(r.instructions),
                    static_cast<unsigned long long>(
                        cfg.measureInstructions));
        return false;
    }
    if (text != reference) {
        std::printf("FAIL: unit result differs from the first unit\n");
        return false;
    }
    return true;
}

/**
 * Run cmt_sim on the same configuration and compare its JSON result
 * with @p expected byte for byte.
 */
bool
matchesCmtSim(const RunOptions &opt, const SimSpec &spec,
              const SystemConfig &cfg, const std::string &expected)
{
    const std::string json_path = opt.workDir + "/cmt_sim.json";
    std::string err;
    const int pid = spawnProcess(
        {opt.binDir + "/cmt_sim", "--bench", spec.benchmark, "--scheme",
         schemeName(spec.scheme), "--warmup",
         std::to_string(cfg.warmupInstructions), "--instr",
         std::to_string(cfg.measureInstructions), "--seed",
         std::to_string(cfg.seed), "--json", json_path},
        opt.workDir + "/cmt_sim.log", &err);
    if (pid < 0 || waitProcess(pid) != 0) {
        std::printf("FAIL: cmt_sim did not run cleanly %s\n", err.c_str());
        return false;
    }
    std::ifstream in(json_path);
    std::stringstream text;
    text << in.rdbuf();
    Json doc;
    std::string perr;
    if (!Json::parse(text.str(), &doc, &perr) || !doc.contains("result")) {
        std::printf("FAIL: unreadable cmt_sim JSON: %s\n", perr.c_str());
        return false;
    }
    const std::string theirs = doc.at("result").dump();
    if (theirs != expected) {
        std::printf("FAIL: cmt_sim result differs\n  ours:   %s\n"
                    "  cmt_sim: %s\n",
                    expected.c_str(), theirs.c_str());
        return false;
    }
    return true;
}

// ------------------------------------------------------------ traced run

/** Layer ids of the simulator's traced run. */
struct SimLayers
{
    int unit, construct, cpu, support, trace, miss, evict;

    explicit SimLayers(SpanRecorder &rec)
        : unit(rec.addLayer("sim.unit")),
          construct(rec.addLayer("sim.construct")),
          cpu(rec.addLayer("cpu.tick")),
          support(rec.addLayer("support.event_run")),
          trace(rec.addLayer("trace.next")),
          miss(rec.addLayer("tree.miss")),
          evict(rec.addLayer("tree.evict"))
    {}
};

/** TraceSource wrapper timing SpecGen::next. */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(std::unique_ptr<TraceSource> inner, SpanRecorder &rec,
               int layer)
        : inner_(std::move(inner)), rec_(rec), layer_(layer)
    {}

    bool
    next(TraceInstr &out) override
    {
        ScopedSpan span(rec_, layer_);
        return inner_->next(out);
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    SpanRecorder &rec_;
    int layer_;
};

/** Decorating IntegrityPolicy timing the scheme's entry points. */
class TimedPolicy : public IntegrityPolicy
{
  public:
    TimedPolicy(L2Controller &l2, std::unique_ptr<IntegrityPolicy> inner,
                SpanRecorder &rec, const SimLayers &layers)
        : IntegrityPolicy(l2), inner_(std::move(inner)), rec_(rec),
          layers_(layers)
    {}

    void
    startDemandMiss(std::uint64_t block_addr) override
    {
        ScopedSpan span(rec_, layers_.miss);
        inner_->startDemandMiss(block_addr);
    }

    void
    evictDirty(const CacheArray::Victim &victim) override
    {
        ScopedSpan span(rec_, layers_.evict);
        inner_->evictDirty(victim);
    }

    bool
    storeMissAllocatesWithoutFetch(std::uint64_t ram_addr) const override
    {
        return inner_->storeMissAllocatesWithoutFetch(ram_addr);
    }

    bool
    verifiesIntegrity() const override
    {
        return inner_->verifiesIntegrity();
    }

  private:
    std::unique_ptr<IntegrityPolicy> inner_;
    SpanRecorder &rec_;
    const SimLayers &layers_;
};

/** Exact simulated counts of one traced unit (warmup + measured). */
struct SimCounts
{
    std::uint64_t hashJobs = 0, hashBytes = 0, hashBusyCycles = 0;
    std::uint64_t bufferStalls = 0, l2Misses = 0;
    std::uint64_t dramReads = 0, dramBytes = 0;
    std::uint64_t events = 0;
    unsigned treeLevels = 0;
};

/**
 * One traced unit: the machine System builds, wired from the same
 * public classes in the same order, driven by System::run()'s loop
 * with spans at every layer boundary.
 */
SimResult
runTracedUnit(const SystemConfig &config, SpanRecorder &rec,
              const SimLayers &layers, SimCounts *counts)
{
    rec.enter(layers.construct);
    StatGroup stats;
    EventQueue events;
    BackingStore store;
    auto tree = std::make_unique<ShardRouter>(
        config.l2.chunkSize, config.l2.protectedSize, config.l2.shards,
        config.l2.readBufferEntries, config.l2.writeBufferEntries);
    const Authenticator::Kind kind =
        config.l2.scheme == Scheme::kIncremental
            ? Authenticator::Kind::kXorMac
            : config.l2.authKind;
    auto auth = std::make_unique<Authenticator>(
        kind, config.l2.key, config.l2.blockSize, config.l2.timestamps);
    auto ram = std::make_unique<ChunkStore>(store, *tree, *auth);
    auto memory =
        std::make_unique<MainMemory>(events, *ram, config.mem, stats);
    auto hasher = std::make_unique<HashEngine>(events, config.hash, stats,
                                               config.l2.shards);
    L2Params l2_params = config.l2;
    l2_params.authKind = kind;
    const PolicyFactory factory = [&rec, &layers](Scheme scheme,
                                                  L2Controller &l2) {
        return std::unique_ptr<IntegrityPolicy>(std::make_unique<TimedPolicy>(
            l2, makeIntegrityPolicy(scheme, l2), rec, layers));
    };
    auto l2 = std::make_unique<L2Controller>(events, *memory, *ram,
                                             *hasher, *tree, *auth,
                                             l2_params, stats, factory);
    auto trace = std::make_unique<TimedTrace>(
        std::make_unique<SpecGen>(profileFor(config.benchmark),
                                  config.seed),
        rec, layers.trace);
    auto core = std::make_unique<Core>(events, *l2, *trace, config.core,
                                       stats);
    Core *core_ptr = core.get();
    l2->onBackInvalidate = [core_ptr](std::uint64_t addr, unsigned len) {
        core_ptr->invalidateL1(addr, len);
    };
    rec.exit();

    // System::run(), with spans around the two calls it makes per
    // simulated cycle.
    Cycle cycle = events.now();
    const auto run_until_committed = [&](std::uint64_t target) {
        std::uint64_t last_committed = core->committed();
        Cycle last_progress = cycle;
        while (core->committed() < target && !core->done()) {
            rec.enter(layers.support);
            events.runUntil(cycle);
            rec.exit();
            rec.enter(layers.cpu);
            core->tick();
            rec.exit();
            ++cycle;
            if (core->committed() != last_committed) {
                last_committed = core->committed();
                last_progress = cycle;
                continue;
            }
            if (cycle - last_progress > 5'000'000)
                cmt_panic("no commit progress for 5M cycles");
            const Cycle wake = core->stalledUntil();
            if (wake == 0)
                continue;
            Cycle next = last_progress + 5'000'000;
            if (!events.empty())
                next = std::min(next, events.nextEventTime());
            next = std::min(next, wake);
            if (next > cycle)
                cycle = next;
        }
    };

    // Counters reset at the end of warmup; fold the warmup share in so
    // every count covers the whole unit.
    const auto snapshot = [&](SimCounts &c) {
        c.hashJobs += hasher->stat_jobs.value();
        c.hashBytes += hasher->stat_bytes.value();
        c.bufferStalls += l2->stat_bufferStallEvents.value();
        c.l2Misses += l2->stat_readMisses.value();
        c.dramReads += memory->stat_reads.value();
        c.dramBytes += memory->bytesTransferred();
    };
    SimCounts c;
    run_until_committed(config.warmupInstructions);
    snapshot(c);
    stats.resetAll();
    const Cycle measure_start = cycle;
    const std::uint64_t committed_start = core->committed();
    run_until_committed(committed_start + config.measureInstructions);
    snapshot(c);
    c.hashBusyCycles = hasher->busyCycles();
    c.events = events.executedCount();
    c.treeLevels = tree->levels();
    *counts = c;

    // The metrics System::run() derives, in the same order.
    SimResult r;
    r.benchmark = config.benchmark;
    r.scheme = config.l2.scheme;
    r.instructions = core->committed() - committed_start;
    r.cycles = cycle - measure_start;
    r.ipc = static_cast<double>(r.instructions) / r.cycles;
    r.l2DemandAccesses = l2->stat_reads.value();
    r.l2DemandMisses = l2->stat_readMisses.value();
    r.l2DataMissRate =
        r.l2DemandAccesses
            ? static_cast<double>(r.l2DemandMisses) / r.l2DemandAccesses
            : 0.0;
    const std::uint64_t total_reads = memory->stat_reads.value();
    const std::uint64_t demand_reads = l2->stat_demandBlockReads.value();
    r.extraReadsPerMiss =
        r.l2DemandMisses ? static_cast<double>(total_reads - demand_reads) /
                               r.l2DemandMisses
                         : 0.0;
    r.bandwidthBytesPerCycle =
        static_cast<double>(memory->bytesTransferred()) / r.cycles;
    if (config.l2.shards != 1)
        r.verifyBytesPerCycle =
            static_cast<double>(hasher->stat_bytes.value()) / r.cycles;
    r.integrityFailures = l2->integrityFailures();
    r.bufferStalls = l2->stat_bufferStallEvents.value();
    const std::uint64_t branches = core->stat_branches.value();
    r.branchMispredictRate =
        branches ? static_cast<double>(core->stat_mispredicts.value()) /
                       branches
                 : 0.0;
    return r;
}

/** Untraced units until @p seconds pass and at least @p min_units ran;
 *  every unit is checked against @p reference (set by the first). */
struct UnitSeries
{
    std::vector<UnitTiming> units;
    std::vector<double> calib; ///< units.size() + 1 samples
    std::uint64_t failed = 0;
    SimResult result; ///< of the last unit

    double factor(std::size_t i) const
    {
        return calibrationFactor(calib, i, kRefKernelSeconds);
    }
};

UnitSeries
runSeries(const SystemConfig &cfg, CalibrationKernel &kernel,
          double seconds, std::size_t min_units, std::string *reference)
{
    UnitSeries s;
    s.calib.push_back(kernel.sample());
    const auto start = Clock::now();
    while (s.units.size() < min_units ||
           secondsBetween(start, Clock::now()) < seconds) {
        s.units.push_back(runUnit(cfg, &s.result));
        s.calib.push_back(kernel.sample());
        const std::string text = resultText(s.result);
        if (reference->empty())
            *reference = text;
        if (!unitCorrect(cfg, s.result, text, *reference))
            ++s.failed;
    }
    return s;
}

/** Calibrated per-unit wall times of a series. */
std::vector<double>
calibratedUnitSeconds(const UnitSeries &s)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < s.units.size(); ++i)
        out.push_back(s.units[i].unitS * s.factor(i));
    return out;
}

void
printConfig(const SimSpec &spec, const SystemConfig &cfg)
{
    std::printf("workload %s: specgen %s, scheme %s, seed %llu, "
                "warmup %llu + measured %llu instructions per unit\n",
                spec.name, spec.benchmark, schemeName(spec.scheme),
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(cfg.warmupInstructions),
                static_cast<unsigned long long>(cfg.measureInstructions));
}

RunOutcome
runUntraced(const RunOptions &opt, const SimSpec &spec)
{
    const SystemConfig cfg = configFor(spec, spec.scheme, opt.seed);
    printConfig(spec, cfg);
    CalibrationKernel kernel;
    std::string reference;
    // 20 units at least: the median needs 10 samples beyond it.
    const UnitSeries s = runSeries(cfg, kernel, opt.seconds, 20, &reference);

    RunOutcome out;
    out.attempted = s.units.size() + 1;
    out.failed = s.failed;
    const bool cmt_sim_agrees = matchesCmtSim(opt, spec, cfg, reference);
    if (!cmt_sim_agrees)
        ++out.failed;

    // Units are identical, so throughput is one unit's instructions
    // over the median calibrated run() time: a burst of contention that
    // the calibration misses moves a few units, not the result.
    std::vector<double> run_s, raw_run_s, setup;
    for (std::size_t i = 0; i < s.units.size(); ++i) {
        run_s.push_back(s.units[i].runS * s.factor(i));
        raw_run_s.push_back(s.units[i].runS);
        setup.push_back(s.units[i].constructS * s.factor(i));
    }
    const double unit_instr =
        static_cast<double>(s.units.front().committed);
    const std::optional<double> p50 =
        percentile(calibratedUnitSeconds(s), 50);
    if (!p50) {
        std::printf("FAIL: too few units for a median\n");
        out.correct = false;
    }
    const double rss_mb =
        static_cast<double>(peakRssBytes() - kernel.bytes()) / (1 << 20);

    std::printf("units %zu (failed %llu) of %.0f simulated instructions, "
                "result digest %016llx, sim_ipc %.9g (%s cmt_sim)\n",
                s.units.size(), static_cast<unsigned long long>(s.failed),
                unit_instr, static_cast<unsigned long long>(fnv1a(reference)),
                s.result.ipc, cmt_sim_agrees ? "equals" : "DIFFERS FROM");
    std::printf("raw calibration sample median %.6f s (reference %.6f s)\n",
                median(s.calib), kRefKernelSeconds);
    printLine("uncalibrated ops_per_s", unit_instr / median(raw_run_s),
              "1/s");
    out.metrics = {
        {"ops_per_s", unit_instr / median(run_s)},
        {"latency_p50_us", p50.value_or(0) * 1e6},
        {"setup_s", median(setup)},
        {"peak_rss_mb", rss_mb},
    };
    out.correct = out.correct && out.failed == 0;
    return out;
}

RunOutcome
runTraced(const RunOptions &opt, const SimSpec &spec)
{
    const SystemConfig cfg = configFor(spec, spec.scheme, opt.seed);
    printConfig(spec, cfg);
    CalibrationKernel kernel;
    RunOutcome out;

    // Thirds: untraced units of the scheme (the reference for both
    // the overhead and the result check), untraced units of the base
    // scheme on the same trace (the integrity layers' share), traced
    // units.
    std::string reference;
    const double third = opt.seconds / 3;
    const UnitSeries plain = runSeries(cfg, kernel, third, 3, &reference);
    std::string base_reference;
    const UnitSeries base =
        runSeries(configFor(spec, Scheme::kBase, opt.seed), kernel, third,
                  3, &base_reference);
    out.attempted = plain.units.size() + base.units.size();
    out.failed = plain.failed + base.failed;

    SpanRecorder rec;
    const SimLayers layers(rec);
    std::vector<double> traced_s;
    std::vector<double> calib{kernel.sample()};
    SimCounts counts;
    SimResult traced_result;
    const auto start = Clock::now();
    while (traced_s.size() < 3 ||
           secondsBetween(start, Clock::now()) < third) {
        const auto t0 = Clock::now();
        rec.enter(layers.unit);
        traced_result = runTracedUnit(cfg, rec, layers, &counts);
        rec.exit();
        const auto t1 = Clock::now();
        calib.push_back(kernel.sample());
        rec.record("sim.unit", t0, t1,
                   static_cast<std::int64_t>(traced_s.size()));
        traced_s.push_back(secondsBetween(t0, t1));
        ++out.attempted;
        if (!unitCorrect(cfg, traced_result, resultText(traced_result),
                         reference)) {
            std::printf("FAIL: the traced assembly does not reproduce "
                        "System::run()\n");
            ++out.failed;
        }
    }
    // Layer totals over all traced units, as one folded record each.
    rec.foldTotals();
    for (std::size_t i = 0; i < traced_s.size(); ++i)
        traced_s[i] *= calibrationFactor(calib, i, kRefKernelSeconds);

    const double plain_med = median(calibratedUnitSeconds(plain));
    const double base_med = median(calibratedUnitSeconds(base));
    const double traced_med = median(traced_s);
    const double units = static_cast<double>(traced_s.size());
    const double total_ns =
        static_cast<double>(rec.totals(layers.unit).totalNs);
    const auto pct = [&](int layer) {
        return 100.0 * static_cast<double>(rec.totals(layer).selfNs) /
               total_ns;
    };
    const auto per_unit_s = [&](int layer) {
        return static_cast<double>(rec.totals(layer).selfNs) / units * 1e-9;
    };
    const auto per_unit_calls = [&](int layer) {
        return static_cast<double>(rec.totals(layer).calls) / units;
    };
    const double md5_ns = md5NsPerChunk(counts.treeLevels,
                                        static_cast<unsigned>(
                                            cfg.l2.chunkSize));

    auto &m = out.metrics;
    m["crypto.md5_ns_per_chunk"] = md5_ns;
    m["tree.integrity_pct"] = 100.0 * (plain_med - base_med) / plain_med;
    m["tree.policy_pct"] = pct(layers.miss) + pct(layers.evict);
    m["cpu.tick_pct"] = pct(layers.cpu);
    m["trace.next_pct"] = pct(layers.trace);
    m["support.event_run_pct"] = pct(layers.support);
    m["tree.misses"] = per_unit_calls(layers.miss);
    m["tree.evicts"] = per_unit_calls(layers.evict);
    m["tree.hash_jobs"] = static_cast<double>(counts.hashJobs);
    m["tree.hash_bytes"] = static_cast<double>(counts.hashBytes);
    m["tree.hash_busy_cycles"] = static_cast<double>(counts.hashBusyCycles);
    m["tree.buffer_stalls"] = static_cast<double>(counts.bufferStalls);
    m["tree.l2_misses"] = static_cast<double>(counts.l2Misses);
    m["mem.dram_reads"] = static_cast<double>(counts.dramReads);
    m["mem.dram_bytes"] = static_cast<double>(counts.dramBytes);
    m["cpu.ticks"] = per_unit_calls(layers.cpu);
    m["trace.instrs"] = per_unit_calls(layers.trace);
    m["support.events"] = static_cast<double>(counts.events);
    m["sim.ipc"] = traced_result.ipc;
    m["bench.calib_ns"] = median(calib) * 1e9;
    m["bench.trace_overhead"] = traced_med / plain_med;

    std::printf("traced units %zu, untraced %zu, base-scheme %zu; "
                "result digest %016llx\n",
                traced_s.size(), plain.units.size(), base.units.size(),
                static_cast<unsigned long long>(fnv1a(reference)));
    std::printf("per-layer host time per unit (self time, raw seconds):\n");
    printLine("tree.miss_s", per_unit_s(layers.miss), "s",
              "IntegrityPolicy::startDemandMiss");
    printLine("tree.evict_s", per_unit_s(layers.evict), "s",
              "IntegrityPolicy::evictDirty");
    printLine("cpu.tick_s", per_unit_s(layers.cpu), "s", "Core::tick");
    printLine("trace.next_s", per_unit_s(layers.trace), "s",
              "SpecGen::next");
    printLine("support.event_run_s", per_unit_s(layers.support), "s",
              "EventQueue::runUntil, incl. tree/mem/crypto handlers");
    printLine("sim.construct_s", per_unit_s(layers.construct), "s");
    printLine("unit (traced, calibrated)", traced_med, "s");
    printLine("unit (untraced, calibrated)", plain_med, "s");
    printLine("unit base scheme (calibrated)", base_med, "s");
    const std::string span_path =
        opt.workDir + "/spans-" + opt.workload + ".tsv";
    if (rec.writeTo(span_path))
        std::printf("spans: %zu records in %s\n", rec.spanCount(),
                    span_path.c_str());
    out.correct = out.failed == 0;
    return out;
}

} // namespace

bool
isSimWorkload(const std::string &name)
{
    return findSpec(name) != nullptr;
}

double
md5NsPerChunk(unsigned depth, unsigned chunk_bytes)
{
    depth = std::max(depth, 1u);
    std::uint64_t state = 0x5eed;
    std::vector<std::vector<std::uint8_t>> msgs(
        depth, std::vector<std::uint8_t>(chunk_bytes));
    for (auto &msg : msgs) {
        for (auto &b : msg)
            b = static_cast<std::uint8_t>(splitmix64(state));
    }
    std::vector<std::span<const std::uint8_t>> views(msgs.begin(),
                                                     msgs.end());
    std::vector<Hash128> digests(depth);
    std::uint64_t chains = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    while (elapsed < 0.05) {
        for (int i = 0; i < 256; ++i) {
            Md5::digestChain(views, digests);
            // Feed each result back so no pass can be skipped.
            msgs[0][0] ^= digests[depth - 1][0];
        }
        chains += 256;
        elapsed = secondsBetween(start, Clock::now());
    }
    return elapsed * 1e9 / static_cast<double>(chains * depth);
}

RunOutcome
runSimWorkload(const RunOptions &opt)
{
    const SimSpec &spec = *findSpec(opt.workload);
    // Stay on one CPU: calibration samples must see the same core (and
    // the same neighbours on it) as the units they scale.
    const int cpu = ::sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        ::sched_setaffinity(0, sizeof set, &set);
    }
    return opt.trace ? runTraced(opt, spec) : runUntraced(opt, spec);
}

} // namespace perfbench
