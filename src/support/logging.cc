#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

#include "support/thread_annotations.h"

namespace cmt
{

namespace
{

/** Depth of ScopedThrowOnError guards held by this thread. */
thread_local int throwOnErrorDepth = 0;

/**
 * Serializes diagnostic emission. Each message is already a single
 * fputs() call, which glibc keeps atomic per stream, but the standard
 * does not promise that for every libc - the mutex makes line
 * atomicity a property of this file instead of the platform.
 */
Mutex emitMutex;

/** Write one already-formatted diagnostic line to stderr. */
void
emit(const std::string &line) CMT_EXCLUDES(emitMutex)
{
    MutexLock lock(emitMutex);
    std::fputs(line.c_str(), stderr);
}

/**
 * Format one complete diagnostic line. Emitting it with a single
 * stdio call keeps concurrent sweep workers from interleaving
 * fragments of each other's messages.
 */
std::string
formatLine(const char *prefix, const char *fmt, va_list args,
           const char *file, int line)
{
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string msg(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(msg.data(), msg.size() + 1, fmt, args);

    std::string out = prefix + msg;
    if (file) {
        char loc[256];
        std::snprintf(loc, sizeof loc, "\n  @ %s:%d", file, line);
        out += loc;
    }
    out += '\n';
    return out;
}

} // namespace

ScopedThrowOnError::ScopedThrowOnError()
{
    ++throwOnErrorDepth;
}

ScopedThrowOnError::~ScopedThrowOnError()
{
    --throwOnErrorDepth;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string out =
        formatLine("panic: ", fmt, args, file, line);
    va_end(args);
    if (throwOnErrorDepth > 0)
        throw SimError(out.substr(0, out.find('\n')));
    emit(out);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string out =
        formatLine("fatal: ", fmt, args, file, line);
    va_end(args);
    if (throwOnErrorDepth > 0)
        throw SimError(out.substr(0, out.find('\n')));
    emit(out);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string out = formatLine("warn: ", fmt, args, nullptr, 0);
    va_end(args);
    emit(out);
}

void
debugf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string msg(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(msg.data(), msg.size() + 1, fmt, args);
    va_end(args);
    emit(msg);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string out = formatLine("info: ", fmt, args, nullptr, 0);
    va_end(args);
    emit(out);
}

} // namespace cmt
