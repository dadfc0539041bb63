#include "support/stats.h"

#include "support/thread_annotations.h"

#include <iomanip>

namespace cmt
{

Counter::Counter(StatGroup &group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    group.registerCounter(this);
}

void
StatGroup::registerCounter(Counter *c)
{
    MutexLock lock(mu_);
    counters_.push_back(c);
}

std::vector<Counter *>
StatGroup::counterSnapshot() const
{
    MutexLock lock(mu_);
    return counters_;
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    for (const Counter *c : counterSnapshot()) {
        if (c->name() == name)
            return c->value();
    }
    return 0;
}

void
StatGroup::resetAll()
{
    for (Counter *c : counterSnapshot())
        c->reset();
}

void
StatGroup::forEachCounter(
    const std::function<void(const Counter &)> &fn) const
{
    for (const Counter *c : counterSnapshot())
        fn(*c);
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const Counter *c : counterSnapshot()) {
        os << std::left << std::setw(36) << c->name() << " "
           << std::right << std::setw(16) << c->value()
           << "  # " << c->desc() << "\n";
    }
}

} // namespace cmt
