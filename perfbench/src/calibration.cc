#include "calibration.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "report.h"

namespace perfbench
{

namespace
{

/** 1 Mi entries of 8 B = 8 MiB: four times a 2 MiB per-core L2. */
constexpr std::size_t kEntries = std::size_t{1} << 20;
/** Iterations per pass, each updating one entry per stream (~2 ms
 *  on the reference host). */
constexpr std::size_t kSteps = 40'000;
constexpr int kStreams = 4;

} // namespace

CalibrationKernel::CalibrationKernel() : table_(kEntries, 1) {}

double
CalibrationKernel::pass()
{
    const auto start = std::chrono::steady_clock::now();
    // Independent streams of random read-modify-writes with a branch
    // on random data: throughput-bound like the simulator (many loads
    // in flight, mispredicted branches), not latency-bound, so it
    // slows down with it when a neighbour shares the core or the
    // cache. A dependent chain tracked the simulator far worse.
    std::uint64_t extra = 0;
    for (std::size_t i = 0; i < kSteps; ++i) {
        for (int k = 0; k < kStreams; ++k) {
            std::uint64_t &s = streams_[k];
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            std::uint64_t &entry = table_[(s >> 20) & (kEntries - 1)];
            entry += s;
            if ((s >> 61) & 1)
                extra += entry * 3;
            else
                extra ^= entry;
        }
    }
    sink_ ^= extra;
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

double
CalibrationKernel::sample()
{
    double t[3] = {pass(), pass(), pass()};
    std::sort(t, t + 3);
    return t[1];
}

double
calibrationFactor(const std::vector<double> &samples, std::size_t index,
                  double ref_seconds)
{
    return ref_seconds / ((samples[index] + samples[index + 1]) / 2);
}

namespace
{

/** Mean and median round trip over @p rounds one-byte bounces. */
PingPong
pingPongPass(int rounds)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        return {};
    std::thread echo([fd = sv[1], rounds] {
        char c = 0;
        for (int i = 0; i < rounds; ++i) {
            if (::read(fd, &c, 1) != 1 || ::write(fd, &c, 1) != 1)
                return;
        }
    });
    char c = 'x';
    std::vector<double> trips;
    for (int i = 0; i < rounds; ++i) {
        const auto start = std::chrono::steady_clock::now();
        if (::write(sv[0], &c, 1) != 1 || ::read(sv[0], &c, 1) != 1)
            break;
        trips.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    // Closing our end unblocks the echo thread if a bounce failed.
    ::close(sv[0]);
    echo.join();
    ::close(sv[1]);
    if (trips.empty())
        return {};
    double sum = 0;
    for (double t : trips)
        sum += t;
    return {sum / static_cast<double>(trips.size()), median(trips)};
}

} // namespace

PingPong
pingPongSample()
{
    std::vector<double> means, medians;
    for (int i = 0; i < 3; ++i) {
        const PingPong p = pingPongPass(300);
        means.push_back(p.meanS);
        medians.push_back(p.medianS);
    }
    return {median(means), median(medians)};
}

} // namespace perfbench
