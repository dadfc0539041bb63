/**
 * @file
 * Minimal discrete-event core for the timing simulator.
 *
 * The out-of-order core ticks every cycle; everything below it (bus,
 * DRAM, hash engine, integrity controllers) schedules completion
 * events on this queue. Events at the same cycle run in FIFO order of
 * scheduling, which keeps runs bit-for-bit reproducible.
 *
 * Representation: events live in pooled slab nodes with the callable
 * constructed inline in a small buffer (heap-boxed only when a
 * capture exceeds the buffer - rare, and a candidate for pooling via
 * support/arena.h). Nodes recycle through a free list, so after
 * warm-up the queue schedules and retires events without touching the
 * allocator. The heap itself is a plain binary heap over (when, seq)
 * entries in one vector. Ordering is identical to the previous
 * std::priority_queue<Event{when, seq, std::function}> representation:
 * seq increments per schedule() call and breaks same-cycle ties FIFO.
 */

#ifndef CMT_SUPPORT_EVENT_H
#define CMT_SUPPORT_EVENT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/logging.h"

namespace cmt
{

/** Simulated processor cycle count. */
using Cycle = std::uint64_t;

/** A time-ordered queue of callbacks. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Destroy pending callables; slab storage is freed wholesale.
        for (const HeapEntry &entry : heap_)
            entry.node->op(entry.node, Op::kDestroy);
    }

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /** Schedule @p fn to run at absolute cycle @p when (>= now). */
    template <typename F>
    void
    schedule(Cycle when, F &&fn)
    {
        cmt_assert(when >= now_);
        Node *node = makeNode(std::forward<F>(fn));
        heap_.push_back(HeapEntry{when, seq_++, node});
        std::push_heap(heap_.begin(), heap_.end(), After{});
    }

    /** Schedule @p fn to run @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycle delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /**
     * Advance time to @p target, running every event scheduled at or
     * before it. Events may schedule further events.
     */
    void
    runUntil(Cycle target)
    {
        cmt_assert(target >= now_);
        while (!heap_.empty() && heap_.front().when <= target) {
            std::pop_heap(heap_.begin(), heap_.end(), After{});
            Node *node = heap_.back().node;
            now_ = heap_.back().when;
            heap_.pop_back();
            // Recycle the node even if the callable throws (panics
            // propagate as exceptions under ScopedThrowOnError).
            ++executed_;
            Recycler recycle{this, node};
            node->op(node, Op::kRunAndDestroy);
        }
        now_ = target;
    }

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Time of the earliest pending event; queue must be non-empty. */
    Cycle
    nextEventTime() const
    {
        cmt_assert(!heap_.empty());
        return heap_.front().when;
    }

    /**
     * Events executed so far. A cheap change stamp: every external
     * mutation of simulator state between core ticks happens inside
     * an event, so "executedCount() unchanged" proves nothing outside
     * the core moved (the core's stalled-tick fast path relies on
     * this).
     */
    std::uint64_t executedCount() const { return executed_; }

    /** Events currently pending (introspection for tests/benches). */
    std::size_t pendingEvents() const { return heap_.size(); }
    /** Recycled nodes parked on the free list. */
    std::size_t pooledNodes() const { return freeCount_; }
    /** Slabs allocated so far; steady state should stop growing. */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    enum class Op
    {
        kRunAndDestroy,
        kDestroy,
    };

    /** Inline callable buffer; larger captures are heap-boxed. */
    static constexpr std::size_t kInlineBytes = 96;
    static constexpr std::size_t kNodesPerSlab = 256;

    struct Node
    {
        void (*op)(Node *, Op);
        Node *nextFree;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    struct HeapEntry
    {
        Cycle when;
        std::uint64_t seq;
        Node *node;
    };

    /** Heap comparator: true when @p a runs after @p b (min-heap). */
    struct After
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    struct Recycler
    {
        EventQueue *queue;
        Node *node;
        ~Recycler() { queue->releaseNode(node); }
    };

    template <typename Fd>
    static void
    opInline(Node *node, Op op)
    {
        Fd *fn = std::launder(reinterpret_cast<Fd *>(node->storage));
        if (op == Op::kRunAndDestroy) {
            struct Guard
            {
                Fd *fn;
                ~Guard() { fn->~Fd(); }
            } guard{fn};
            (*fn)();
        } else {
            fn->~Fd();
        }
    }

    template <typename Fd>
    static void
    opBoxed(Node *node, Op op)
    {
        Fd *fn = *std::launder(
            reinterpret_cast<Fd **>(node->storage));
        std::unique_ptr<Fd> owned(fn);
        if (op == Op::kRunAndDestroy)
            (*owned)();
    }

    template <typename F>
    Node *
    makeNode(F &&fn)
    {
        using Fd = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fd &>);
        if constexpr (sizeof(Fd) <= kInlineBytes &&
                      alignof(Fd) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fd>) {
            Node *node = acquireNode();
            ::new (static_cast<void *>(node->storage)) // cmt-analyze: allow(naked-new) - placement new into pooled node
                Fd(std::forward<F>(fn));
            node->op = &opInline<Fd>;
            return node;
        } else {
            auto boxed = std::make_unique<Fd>(std::forward<F>(fn));
            Node *node = acquireNode();
            *reinterpret_cast<Fd **>(node->storage) = boxed.release();
            node->op = &opBoxed<Fd>;
            return node;
        }
    }

    Node *
    acquireNode()
    {
        if (free_ == nullptr)
            growSlab();
        Node *node = free_;
        free_ = node->nextFree;
        --freeCount_;
        return node;
    }

    void
    releaseNode(Node *node)
    {
        node->nextFree = free_;
        free_ = node;
        ++freeCount_;
    }

    void
    growSlab()
    {
        auto slab = std::make_unique<Node[]>(kNodesPerSlab);
        for (std::size_t i = 0; i < kNodesPerSlab; ++i) {
            slab[i].nextFree = free_;
            free_ = &slab[i];
        }
        freeCount_ += kNodesPerSlab;
        slabs_.push_back(std::move(slab));
    }

    std::vector<HeapEntry> heap_;
    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *free_ = nullptr;
    std::size_t freeCount_ = 0;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace cmt

#endif // CMT_SUPPORT_EVENT_H
