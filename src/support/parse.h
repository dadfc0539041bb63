/**
 * @file
 * Checked number parsing for command-line flags.
 *
 * One parser for every numeric flag of the tools and harnesses:
 * std::stoull() threw on "abc" (an uncaught exception, exit 134),
 * strtoul() wrapped "-1" and saturated overflow into a "valid"
 * value. parseNumber() rejects only text that is not a number of the
 * flag's type; what a value means (a zero block size, a hash unit
 * below the throughput floor) stays with the code that uses it.
 *
 * Every tool gives a command line it cannot run exit status 2 through
 * usageError(), and keeps exit status 1 for failures at run time.
 */

#ifndef CMT_SUPPORT_PARSE_H
#define CMT_SUPPORT_PARSE_H

#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

namespace cmt
{

/** Upper bound shared by the count flags (--jobs, --workers,
 *  --clients, --stores, ...): a typo must not become a million
 *  threads. */
inline constexpr unsigned kMaxCount = 1'000'000;

/**
 * Parse all of @p text as a base-10 number of type T in [min, max].
 * Rejects empty text, trailing garbage, any sign on an unsigned T,
 * and values outside the range (overflow included). Floating-point T
 * parses as std::strtod() does, minus trailing garbage.
 *
 * @return the value, or nullopt when @p text is not such a number.
 */
template <typename T>
std::optional<T>
parseNumber(const std::string &text, T min, T max)
{
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    if constexpr (std::is_floating_point_v<T>) {
        if (text.empty())
            return std::nullopt;
        char *end = nullptr;
        errno = 0;
        value = static_cast<T>(std::strtod(text.c_str(), &end));
        if (errno != 0 || end != text.c_str() + text.size())
            return std::nullopt;
    } else {
        const char *last = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), last, value);
        if (ec != std::errc() || ptr != last)
            return std::nullopt;
    }
    if (value < min || value > max)
        return std::nullopt;
    return value;
}

/**
 * Report the usage error @p fmt of program @p prog on stderr and
 * exit(2).
 */
[[noreturn, gnu::format(printf, 2, 3)]] inline void
usageError(const char *prog, const char *fmt, ...)
{
    std::fprintf(stderr, "%s: ", prog);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::exit(2);
}

/**
 * parseNumber() for the value @p text of flag @p flag of program
 * @p prog. A value that is not a number in range is a usage error.
 */
template <typename T>
T
parseFlag(const char *prog, const std::string &flag,
          const std::string &text,
          T min = std::numeric_limits<T>::lowest(),
          T max = std::numeric_limits<T>::max())
{
    const std::optional<T> value = parseNumber(text, min, max);
    if (value)
        return *value;
    if constexpr (std::is_floating_point_v<T>)
        usageError(prog, "%s expects a number, got '%s'", flag.c_str(),
                   text.c_str());
    else
        usageError(prog, "%s expects an integer in [%s, %s], got '%s'",
                   flag.c_str(), std::to_string(min).c_str(),
                   std::to_string(max).c_str(), text.c_str());
}

} // namespace cmt

#endif // CMT_SUPPORT_PARSE_H
