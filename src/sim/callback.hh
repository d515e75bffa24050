/**
 * @file
 * Callback: the event kernel's move-only `void()` callable.
 *
 * A type-erased callable with 56 bytes of inline storage -- room for a
 * `this` pointer plus a few ids, or for a nested std::function -- so
 * scheduling the model's closures never touches the heap.  Callables
 * that are larger or over-aligned fall back to one heap allocation.
 *
 * Unlike std::function it is move-only (closures may own move-only
 * state), and moving a closure whose captures are trivially copyable
 * is a plain copy of the buffer: the kernel moves each callback into
 * its slab on schedule() and out again on service.
 */

#ifndef VIP_SIM_CALLBACK_HH
#define VIP_SIM_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace vip
{

class Callback
{
    /** Enables the converting members for callables other than
     *  Callback itself. */
    template <class F, class D = std::decay_t<F>>
    using Wraps = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                   std::is_invocable_r_v<void, D &>>;

  public:
    static constexpr std::size_t kInlineBytes = 56;

    Callback() noexcept = default;

    /** Wrap @p f.  An empty std::function or null pointer yields an
     *  empty Callback, so `if (cb) cb();` keeps its meaning. */
    template <class F, class = Wraps<F>>
    Callback(F &&f)
    {
        init(std::forward<F>(f));
    }

    /** Replace the held callable with @p f, built in place. */
    template <class F, class = Wraps<F>>
    Callback &
    operator=(F &&f)
    {
        reset();
        init(std::forward<F>(f));
        return *this;
    }

    Callback(Callback &&o) noexcept { take(o); }

    Callback &
    operator=(Callback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    void operator()() const { _ops->invoke(_buf); }

    /** Destroy the held callable, leaving the Callback empty. */
    void
    reset() noexcept
    {
        if (_ops && _ops->destroy)
            _ops->destroy(_buf);
        _ops = nullptr;
    }

  private:
    template <class F>
    void
    init(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_constructible_v<bool, const D &>) {
            if (!static_cast<bool>(f))
                return;
        }
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
            _ops = &kInlineOps<D>;
        } else {
            D *p = new D(std::forward<F>(f));
            std::memcpy(_buf, &p, sizeof(p));
            _ops = &kHeapOps<D>;
        }
    }

    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into dst and destroy src; null for a plain
         *  byte copy. */
        void (*relocate)(void *dst, void *src);
        /** Null when destruction is trivial. */
        void (*destroy)(void *);
    };

    template <class D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               kInlineBytes % alignof(D) == 0 &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <class D>
    static constexpr bool kTrivial =
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D>;

    template <class D>
    static D *
    inlinePtr(void *buf)
    {
        return std::launder(static_cast<D *>(buf));
    }

    template <class D>
    static D *
    heapPtr(void *buf)
    {
        D *p;
        std::memcpy(&p, buf, sizeof(p));
        return p;
    }

    template <class D>
    static constexpr Ops kInlineOps{
        [](void *b) { (*inlinePtr<D>(b))(); },
        kTrivial<D> ? nullptr
                    : +[](void *dst, void *src) {
                          D *s = inlinePtr<D>(src);
                          ::new (dst) D(std::move(*s));
                          s->~D();
                      },
        kTrivial<D> ? nullptr
                    : +[](void *b) { inlinePtr<D>(b)->~D(); }};

    template <class D>
    static constexpr Ops kHeapOps{
        [](void *b) { (*heapPtr<D>(b))(); }, nullptr,
        [](void *b) { delete heapPtr<D>(b); }};

    void
    take(Callback &o) noexcept
    {
        _ops = o._ops;
        if (!_ops)
            return;
        if (_ops->relocate)
            _ops->relocate(_buf, o._buf);
        else
            std::memcpy(_buf, o._buf, kInlineBytes);
        o._ops = nullptr;
    }

    /** Zeroed so take()'s whole-buffer copy never reads bytes a small
     *  callable left undefined. */
    alignas(std::max_align_t) mutable unsigned char _buf[kInlineBytes]{};
    const Ops *_ops = nullptr;
};

} // namespace vip

#endif // VIP_SIM_CALLBACK_HH
