/**
 * @file
 * SlabPool: slab-backed object recycling for per-access state.
 *
 * The integrity policies used to heap-allocate a fresh join counter
 * (`std::make_shared<unsigned>`) and path vector for every cache
 * miss. A SlabPool constructs objects in large slabs and recycles
 * them through a free list WITHOUT destroying them, so members like
 * `std::vector` keep their capacity across reuse - after warm-up the
 * steady state performs no allocations at all.
 *
 * Lifetime rules (also documented in DESIGN.md §11):
 *  - acquire() returns a live, default-constructed-or-recycled
 *    object; the caller must reset any fields it reads (e.g.
 *    `vec.clear()` - capacity is retained, contents are stale).
 *  - release() returns the object to the pool; the caller must not
 *    touch it afterwards. The object is NOT destroyed until the pool
 *    itself is.
 *  - the pool must outlive every outstanding pointer; policies own
 *    their pools and release all state before destruction because
 *    the event queue drains first.
 */

#ifndef CMT_SUPPORT_ARENA_H
#define CMT_SUPPORT_ARENA_H

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "support/logging.h"

namespace cmt
{

/** Recycling pool of default-constructible T, slab-allocated. */
template <typename T, std::size_t NodesPerSlab = 32>
class SlabPool
{
    static_assert(NodesPerSlab > 0);

  public:
    SlabPool() = default;
    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    ~SlabPool()
    {
        for (T *obj : constructed_)
            obj->~T();
    }

    /**
     * Hand out a pooled object. Recycled objects keep whatever state
     * they had at release(); callers reset the fields they use.
     */
    T *
    acquire()
    {
        ++live_;
        if (!free_.empty()) {
            T *obj = free_.back();
            free_.pop_back();
            return obj;
        }
        if (slabs_.empty() || usedInLastSlab_ == NodesPerSlab) {
            slabs_.push_back(std::make_unique<Slab>());
            usedInLastSlab_ = 0;
        }
        void *raw = slabs_.back()->bytes +
                    sizeof(T) * usedInLastSlab_;
        ++usedInLastSlab_;
        T *obj = ::new (raw) T(); // cmt-analyze: allow(naked-new) - placement new into slab storage
        constructed_.push_back(obj);
        return obj;
    }

    /** Return @p obj to the pool. It stays constructed for reuse. */
    void
    release(T *obj)
    {
        cmt_assert(obj != nullptr);
        cmt_assert(live_ > 0);
        --live_;
        free_.push_back(obj);
    }

    /** Objects currently handed out. */
    std::size_t liveCount() const { return live_; }
    /** Objects parked on the free list. */
    std::size_t freeCount() const { return free_.size(); }
    /** Slabs allocated so far (never shrinks). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    struct Slab
    {
        alignas(T) unsigned char bytes[sizeof(T) * NodesPerSlab];
    };

    std::vector<std::unique_ptr<Slab>> slabs_;
    std::vector<T *> constructed_;
    std::vector<T *> free_;
    std::size_t usedInLastSlab_ = 0;
    std::size_t live_ = 0;
};

} // namespace cmt

#endif // CMT_SUPPORT_ARENA_H
