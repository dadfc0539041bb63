/**
 * @file
 * Shared helpers of the benchmark: order statistics, the result line,
 * the span recorder of traced runs, and small process utilities.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** SplitMix64 step: the benchmark's only generator of inputs. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Median of @p values (mean of the middle two for an even count);
 *  0 for an empty set. */
double median(std::vector<double> values);

/**
 * The @p pct-th percentile (nearest rank) of @p values, or nothing
 * when fewer than 10 samples lie strictly beyond that rank: a tail
 * read from fewer samples is noise, so callers must refuse it.
 */
std::optional<double> percentile(std::vector<double> values, double pct);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Print the result line the benchmark's contract requires as the last
 * line of standard output:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &metrics);

/** Peak resident set (VmHWM) of process @p pid ("self" when 0), in
 *  bytes; 0 if unreadable. */
std::uint64_t peakRssBytes(int pid = 0);

/** FNV-1a 64 of @p text (result digests in the human-readable
 *  output). */
std::uint64_t fnv1a(const std::string &text);

/**
 * Start @p argv (argv[0] is the program path) with stdout and stderr
 * appended to @p log_path. The child is killed if the benchmark dies
 * first. @return its pid, or -1 with @p err set.
 */
int spawnProcess(const std::vector<std::string> &argv,
                 const std::string &log_path, std::string *err);

/** Reap @p pid; @return its exit code, or -1 if a signal ended it. */
int waitProcess(int pid);

/**
 * Spans of a traced run, kept in memory and written once at the end.
 * Fine-grained layer spans (one per Core::tick, say) are folded into
 * per-layer totals on the fly; coarse spans (one per simulation unit
 * or per request) are kept individually.
 */
class SpanRecorder
{
  public:
    /** Layers get small ids so the hot path indexes an array. */
    int addLayer(const std::string &name);

    /** Open a span of @p layer; spans nest. */
    void
    enter(int layer)
    {
        stack_.push_back(Open{layer, Clock::now(), 0});
    }

    /** Close the innermost span, charging its self time (duration
     *  minus child spans) to its layer and its duration to the
     *  parent's child time. */
    void
    exit()
    {
        const Open open = stack_.back();
        stack_.pop_back();
        const std::int64_t dur =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - open.start)
                .count();
        Totals &t = totals_[open.layer];
        ++t.calls;
        t.totalNs += dur;
        t.selfNs += dur - open.childNs;
        if (!stack_.empty())
            stack_.back().childNs += dur;
    }

    struct Totals
    {
        std::uint64_t calls = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    const Totals &totals(int layer) const { return totals_[layer]; }

    /** Keep one coarse span: name, start and end, and the id shared
     *  by the spans of one unit or connection. */
    void record(const std::string &name, Clock::time_point start,
                Clock::time_point end, std::int64_t id);

    /** Keep the per-layer totals so far as aggregate records, one per
     *  layer with any calls. */
    void foldTotals();

    /** Write every kept span as tab-separated lines; false on I/O
     *  error. */
    bool writeTo(const std::string &path) const;

    std::size_t spanCount() const { return spans_.size(); }

  private:
    struct Open
    {
        int layer;
        Clock::time_point start;
        std::int64_t childNs;
    };
    struct Span
    {
        std::string name;
        std::int64_t startNs, endNs, id;
        std::uint64_t calls;
        std::int64_t selfNs;
    };

    Clock::time_point epoch_ = Clock::now();
    std::vector<std::string> names_;
    std::vector<Totals> totals_;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
};

/** RAII span on a recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, int layer) : rec_(rec)
    {
        rec_.enter(layer);
    }
    ~ScopedSpan() { rec_.exit(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
};

/** Print one human-readable "name value unit" line to stdout. */
void printLine(const std::string &name, double value,
               const std::string &unit, const std::string &note = "");

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
