/**
 * @file
 * Error and status reporting in the gem5 style.
 *
 * panic()  - an internal invariant was violated: a CMT bug. Aborts.
 * fatal()  - the user asked for something impossible (bad config,
 *            invalid arguments). Exits with an error code.
 * warn()   - something is modelled approximately; results may be
 *            affected.
 * inform() - normal operating status.
 */

#ifndef CMT_SUPPORT_LOGGING_H
#define CMT_SUPPORT_LOGGING_H

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace cmt
{

/**
 * Thrown instead of aborting/exiting by panic()/fatal() raised on a
 * thread that holds a ScopedThrowOnError guard. Lets a sweep isolate
 * one broken configuration to an error row instead of killing the
 * whole run.
 */
class SimError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard: while alive on this thread, panic()/fatal() throw
 * SimError rather than terminating the process. Nests; thread-local,
 * so guarded worker threads never change behaviour elsewhere.
 */
class ScopedThrowOnError
{
  public:
    ScopedThrowOnError();
    ~ScopedThrowOnError();
    ScopedThrowOnError(const ScopedThrowOnError &) = delete;
    ScopedThrowOnError &operator=(const ScopedThrowOnError &) = delete;
};

/** Print a formatted panic message with location info and abort. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Print a formatted fatal message with location info and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Print a warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace cmt

#define cmt_panic(...) ::cmt::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cmt_fatal(...) ::cmt::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Check an internal invariant; panics with the stringified condition on
 * failure. Always enabled (the simulator is cheap enough to keep its
 * self-checks on in release builds).
 */
#define cmt_assert(cond)                                                \
    do {                                                                \
        if (!(cond))                                                    \
            ::cmt::panicImpl(__FILE__, __LINE__,                        \
                             "assertion failed: %s", #cond);            \
    } while (0)

#endif // CMT_SUPPORT_LOGGING_H
