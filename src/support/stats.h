/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Components own Counter members registered with a StatGroup; a whole group can be dumped, reset, or queried by name.
 * This mirrors the role of the gem5 stats package at laptop scale.
 */

#ifndef CMT_SUPPORT_STATS_H
#define CMT_SUPPORT_STATS_H

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/thread_annotations.h"

namespace cmt
{

class StatGroup;

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup &group, std::string name, std::string desc);

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/**
 * Owner of a flat namespace of statistics. Components hold a reference
 * to one group and prefix their stat names ("l2.misses").
 *
 * Thread model: the registry (the pointer vector) is mutex-guarded,
 * so components on different threads may register with, reset, or
 * read through a shared group. The Counter values themselves are NOT
 * synchronized - each counter must still be written from one thread
 * at a time (in practice every simulation owns its group and all its
 * stats on one worker thread).
 */
class StatGroup
{
  public:
    void registerCounter(Counter *c) CMT_EXCLUDES(mu_);

    /** Look up a counter value by exact name; 0 if absent. */
    std::uint64_t counterValue(const std::string &name) const
        CMT_EXCLUDES(mu_);

    /** Reset every registered statistic. */
    void resetAll() CMT_EXCLUDES(mu_);

    /**
     * Visit every counter in registration order (serializers).
     * @p fn runs outside the registry lock, so it may re-enter the
     * group (e.g. registering while serializing is legal, if odd).
     */
    void forEachCounter(
        const std::function<void(const Counter &)> &fn) const
        CMT_EXCLUDES(mu_);

    /** Write "name value  # desc" lines for everything registered. */
    void dump(std::ostream &os) const CMT_EXCLUDES(mu_);

  private:
    /** Registration-order snapshots taken under @ref mu_. */
    std::vector<Counter *> counterSnapshot() const CMT_EXCLUDES(mu_);

    mutable Mutex mu_;
    std::vector<Counter *> counters_ CMT_GUARDED_BY(mu_);
};

} // namespace cmt

#endif // CMT_SUPPORT_STATS_H
