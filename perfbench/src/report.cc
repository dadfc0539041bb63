#include "report.h"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2;
}

std::optional<double>
percentile(std::vector<double> values, double pct)
{
    const std::size_t n = values.size();
    if (n == 0 || pct <= 0 || pct > 100)
        return std::nullopt;
    // Nearest rank, 1-based: the smallest k with k/n >= pct/100.
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < 10)
        return std::nullopt;
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

namespace
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i != 0)
            line += ", ";
        line += jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::uint64_t
peakRssBytes(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    }
    return 0;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

int
spawnProcess(const std::vector<std::string> &argv,
             const std::string &log_path, std::string *err)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        return -1;
    }
    if (pid == 0) {
        // Child: only async-signal-safe calls until exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    return pid;
}

int
waitProcess(int pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
SpanRecorder::addLayer(const std::string &name)
{
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<int>(names_.size() - 1);
}

void
SpanRecorder::record(const std::string &name, Clock::time_point start,
                     Clock::time_point end, std::int64_t id)
{
    using std::chrono::duration_cast;
    using std::chrono::nanoseconds;
    const std::int64_t start_ns =
        duration_cast<nanoseconds>(start - epoch_).count();
    const std::int64_t end_ns =
        duration_cast<nanoseconds>(end - epoch_).count();
    spans_.push_back(Span{name, start_ns, end_ns, id, 1, end_ns - start_ns});
}

void
SpanRecorder::foldTotals()
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        const Totals &t = totals_[i];
        if (t.calls != 0)
            spans_.push_back(
                Span{names_[i], -1, t.totalNs, -1, t.calls, t.selfNs});
    }
}

bool
SpanRecorder::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    // Coarse spans carry start/end; folded layer records carry -1 as
    // start and their summed duration in the end column.
    out << "name\tstart_ns\tend_or_total_ns\tid\tcalls\tself_ns\n";
    for (const Span &s : spans_) {
        out << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t'
            << s.id << '\t' << s.calls << '\t' << s.selfNs << '\n';
    }
    out.close();
    return static_cast<bool>(out);
}

void
printLine(const std::string &name, double value, const std::string &unit,
          const std::string &note)
{
    std::printf("  %-34s %16.6g %-8s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
}

} // namespace perfbench
