// Positive fixture: hot-path-alloc rule must stay quiet about
// SmallCallback-style members, identifiers merely containing the
// banned names, and construction-time hooks escaped with an allow
// directive.
#include <cstdint>
#include <functional>

template <typename Sig> struct SmallCallback;
template <typename R, typename... Args>
struct SmallCallback<R(Args...)>
{
    R operator()(Args...) const;
};

struct Policy
{
    // The per-miss path carries its completion inline.
    SmallCallback<void(std::uint64_t)> onFill;

    // Bound once when the system is wired up; never on the miss path.
    // cmt-analyze: allow(hot-path-alloc)
    std::function<void()> onConstructed;

    void make_shared_things_happen(); // substring, not the call
};
