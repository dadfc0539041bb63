// Positive fixture: allowed idioms the linter must stay quiet about.
#include "clean.h"

#include <chrono>
// cmt-analyze: allow(stdout-discipline) - justified FILE* formatting use
#include <cstdio>
#include <stdexcept>

namespace fixture
{

void
Widget::renews()
{
    // snprintf/fprintf(stderr) are fine: formatting into a buffer and
    // single-call stderr diagnostics do not break line atomicity.
    char buf[64];
    std::snprintf(buf, sizeof buf, "count=%d", 3);
    std::fprintf(stderr, "%s\n", buf);

    // steady_clock is monotonic host timing, not wall-clock
    // nondeterminism; words containing banned identifiers
    // (rand/time/new/delete) as substrings must not fire either.
    const auto t0 = std::chrono::steady_clock::now();
    (void)t0;
    int operand = 1;      // "rand" inside an identifier
    int timestamp = 2;    // "time" inside an identifier
    int newish = operand; // "new" inside an identifier
    (void)timestamp;
    (void)newish;

    // Mentioning printf("...") or rand() inside a comment or a
    // string literal is documentation, not a violation.
    const char *doc = "call rand() then printf(\"x\") and catch (...)";
    (void)doc;
}

bool
Widget::deleted() const
{
    try {
        return owned_.empty();
    } catch (const std::exception &) {
        // Narrow catch: SimError still propagates upward.
        return false;
    }
}

// Explicitly suppressed violation: the directive-only line covers the
// next line.
// cmt-analyze: allow(nondeterminism)
extern "C" int rand();

} // namespace fixture
