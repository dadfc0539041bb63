/**
 * @file
 * SmallCallback: a fixed-capacity, move-only callable wrapper.
 *
 * The timing simulator threads completion callbacks through every
 * layer (core -> L2 -> memory -> hash engine). `std::function` heap
 * allocates whenever a capture exceeds ~16 bytes, which turns the hot
 * path into an allocator benchmark. SmallCallback stores the callable
 * inline in a caller-chosen buffer and refuses (at compile time) any
 * capture that does not fit, so oversized state must be pooled
 * explicitly (see support/arena.h) instead of silently heap-boxed.
 *
 * Differences from std::function, all deliberate:
 *  - move-only (callbacks are one-shot completion tokens here);
 *  - no heap fallback: too-big captures are a compile error;
 *  - captures must be nothrow-move-constructible so containers of
 *    callbacks can relocate without exception-safety holes.
 */

#ifndef CMT_SUPPORT_CALLBACK_H
#define CMT_SUPPORT_CALLBACK_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "support/logging.h"

namespace cmt
{

template <typename Signature, std::size_t Capacity = 48>
class SmallCallback; // primary template is never defined

/** Move-only inplace function of signature R(Args...). */
template <typename R, typename... Args, std::size_t Capacity>
class SmallCallback<R(Args...), Capacity>
{
  public:
    SmallCallback() = default;
    SmallCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallCallback(F &&fn)
    {
        using Fd = std::decay_t<F>;
        static_assert(sizeof(Fd) <= Capacity,
                      "capture too large for SmallCallback: pool the "
                      "state (support/arena.h) and capture a pointer");
        static_assert(alignof(Fd) <= alignof(std::max_align_t),
                      "over-aligned capture");
        static_assert(std::is_nothrow_move_constructible_v<Fd>,
                      "capture must be nothrow-move-constructible");
        ::new (static_cast<void *>(storage_)) // cmt-analyze: allow(naked-new) - placement new into the inline buffer
            Fd(std::forward<F>(fn));
        ops_ = &OpsImpl<Fd>::ops;
    }

    SmallCallback(SmallCallback &&other) noexcept { moveFrom(other); }

    SmallCallback &
    operator=(SmallCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallCallback(const SmallCallback &) = delete;
    SmallCallback &operator=(const SmallCallback &) = delete;

    ~SmallCallback() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        cmt_assert(ops_ != nullptr);
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroy the stored callable, leaving the wrapper empty. */
    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(unsigned char *, Args &&...);
        void (*relocate)(unsigned char *to,
                         unsigned char *from) noexcept;
        void (*destroy)(unsigned char *) noexcept;
    };

    template <typename Fd>
    struct OpsImpl
    {
        static Fd *
        at(unsigned char *s)
        {
            return std::launder(reinterpret_cast<Fd *>(s));
        }

        static R
        invoke(unsigned char *s, Args &&...args)
        {
            return (*at(s))(std::forward<Args>(args)...);
        }

        static void
        relocate(unsigned char *to, unsigned char *from) noexcept
        {
            ::new (static_cast<void *>(to)) // cmt-analyze: allow(naked-new) - placement move into the new buffer
                Fd(std::move(*at(from)));
            at(from)->~Fd();
        }

        static void
        destroy(unsigned char *s) noexcept
        {
            at(s)->~Fd();
        }

        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(SmallCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[Capacity];
};

} // namespace cmt

#endif // CMT_SUPPORT_CALLBACK_H
