/**
 * @file
 * Host-speed calibration for the simulator workloads.
 *
 * Host time on a shared machine drifts by 10-20% over tens of seconds
 * (cache contention from neighbours, not preemption: thread CPU time
 * drifts as much as wall time). A fixed memory-plus-ALU kernel, run in
 * the same thread right after every timed unit, drifts the same way;
 * dividing each unit's time by the kernel's time measured next to it
 * and multiplying by a recorded reference kernel time turns host
 * seconds into "reference seconds" that no longer carry the drift.
 *
 *   calibrated_s = unit_s * kRefKernelSeconds / kernel_s(adjacent)
 *
 * The kernel's composition and kRefKernelSeconds are frozen: changing
 * either rescales every calibrated number.
 */

#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Reference time of one calibration sample (seconds), measured once
 * on the 4-vCPU KVM host the benchmark was tuned on. Only its
 * constancy matters: it fixes the unit of calibrated seconds.
 */
constexpr double kRefKernelSeconds = 0.0022;

/** The fixed calibration kernel: four independent streams of random
 *  read-modify-writes over an 8 MiB table, with a data-dependent
 *  branch per update. */
class CalibrationKernel
{
  public:
    CalibrationKernel();

    /** Bytes the kernel keeps resident (excluded from RSS metrics). */
    std::size_t bytes() const { return table_.size() * sizeof(table_[0]); }

    /**
     * One calibration sample: the median wall time (seconds) of three
     * back-to-back kernel passes, so one interrupt cannot skew it.
     */
    double sample();

  private:
    double pass();

    std::vector<std::uint64_t> table_;
    std::uint64_t streams_[4] = {1, 2, 3, 4};
    std::uint64_t sink_ = 0;
};

/**
 * Scale factor for the unit at @p index given every calibration
 * sample of the run: samples[i + 1] was taken right after unit i and
 * samples.front() before unit 0, so there are units + 1 samples. The
 * factor is @p ref_seconds over the mean of the two samples adjacent
 * to the unit.
 */
double calibrationFactor(const std::vector<double> &samples,
                         std::size_t index, double ref_seconds);

/** Reference round trip of pingPongSample() (seconds), measured with
 *  kRefKernelSeconds on the same host; mean and median were both
 *  about this. */
constexpr double kRefPingPongSeconds = 14.5e-6;

/** One ping-pong calibration sample. */
struct PingPong
{
    /** Mean round trip: scales throughput, which follows mean RTT. */
    double meanS = 0;
    /** Median round trip: scales median latency. Under heavy outside
     *  contention the mean grows much faster than the median, for the
     *  daemon and the kernel alike. */
    double medianS = 0;
};

/**
 * Calibration for the daemon workloads: one byte bounced between two
 * threads over a unix socketpair, 300 times per pass; each statistic
 * is the median of three passes. A daemon round trip is mostly such
 * cross-thread wake-ups, and when the host makes them slow the daemon
 * slows with them; the CPU kernel above tracks that far worse.
 */
PingPong pingPongSample();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_H
