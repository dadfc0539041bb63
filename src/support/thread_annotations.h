/**
 * @file
 * Clang thread-safety (Capability) annotations, plus annotated
 * std::mutex wrappers the analysis can see through.
 *
 * Under clang (compiled with -Wthread-safety, which the top-level
 * CMakeLists promotes to an error) a missing lock on a
 * CMT_GUARDED_BY member or a call into a CMT_REQUIRES function is a
 * compile failure; under GCC every macro expands to nothing, so the
 * annotations cost other toolchains nothing.
 *
 * Usage pattern:
 *
 *   class Registry
 *   {
 *       Mutex mu_;
 *       std::vector<int> items_ CMT_GUARDED_BY(mu_);
 *
 *       void add(int v)
 *       {
 *           MutexLock lock(mu_);
 *           items_.push_back(v);
 *       }
 *   };
 *
 * The wrappers mirror the tiny subset of the std API we use; anything
 * fancier (condition variables, try-locks) should be added here with
 * matching annotations, never used bare on guarded state.
 */

#ifndef CMT_SUPPORT_THREAD_ANNOTATIONS_H
#define CMT_SUPPORT_THREAD_ANNOTATIONS_H

#include <mutex>

#if defined(__clang__)
#define CMT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CMT_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define CMT_CAPABILITY(x) CMT_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires on construction, releases on
 *  destruction. */
#define CMT_SCOPED_CAPABILITY CMT_THREAD_ANNOTATION(scoped_lockable)

/** Member may only be touched while holding @p x. */
#define CMT_GUARDED_BY(x) CMT_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be touched while holding @p x. */
#define CMT_PT_GUARDED_BY(x) CMT_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function must be called with @p ... held. */
#define CMT_REQUIRES(...) \
    CMT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function must be called with @p ... NOT held (deadlock guard). */
#define CMT_EXCLUDES(...) \
    CMT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function acquires @p ... and does not release it. */
#define CMT_ACQUIRE(...) \
    CMT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases @p ... . */
#define CMT_RELEASE(...) \
    CMT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Return value is a reference to state guarded by @p x. */
#define CMT_RETURN_CAPABILITY(x) CMT_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: function body is exempt from the analysis. Use only
 *  with a comment explaining why the analysis cannot see the truth. */
#define CMT_NO_THREAD_SAFETY_ANALYSIS \
    CMT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cmt
{

/**
 * std::mutex with a capability annotation, so members can be declared
 * CMT_GUARDED_BY(mu_) and clang enforces the discipline.
 */
class CMT_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() CMT_ACQUIRE() { mu_.lock(); }
    void unlock() CMT_RELEASE() { mu_.unlock(); }

  private:
    std::mutex mu_;
};

/** Annotated scoped lock over cmt::Mutex (std::lock_guard shape). */
class CMT_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) CMT_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() CMT_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

} // namespace cmt

#endif // CMT_SUPPORT_THREAD_ANNOTATIONS_H
