/**
 * @file
 * Fixed-capacity, move-only callables for the simulator hot path.
 *
 * Every simulated packet hop, core completion, and open-loop send is
 * one scheduled callback. With std::function, any capture beyond the
 * implementation's small-buffer optimisation (16 bytes in libstdc++)
 * costs a heap allocation, an indirect call through type erasure, and
 * a deallocation — per event, in the innermost loop of every run of
 * every study. InplaceFunction stores its capture inline in a
 * fixed-size buffer instead, so queue slots and run-queue entries own
 * their callbacks with zero steady-state allocation, the way gem5's
 * intrusive events do.
 *
 * A callback moves several times on its way to firing (into the event
 * queue's slot, along a run queue), so relocation is hot too. A
 * trivially copyable capture — pointers, integers, a net::Message —
 * relocates with one fixed-size memcpy of the buffer and needs no
 * destroy; only a capture with a non-trivial member pays an indirect
 * relocate thunk per move and a destroy thunk at the end. The hot
 * schedule and submit overloads skip the first move altogether: they
 * build a lambda straight into its slot with emplace().
 *
 * The capacity is a hard budget: a capture that does not fit fails to
 * compile (static_assert) instead of silently spilling to the heap.
 * When that fires, first try to shrink the capture — capture a field
 * instead of a whole struct, an index into a pool instead of a
 * payload. For genuinely cold paths where a big capture is fine,
 * heapWrap() boxes the callable behind one explicit allocation.
 */

#ifndef TPV_SIM_INLINE_FUNCTION_HH
#define TPV_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tpv {

/**
 * A callable argument that an InplaceFunction type @p Fn builds in
 * place (see InplaceFunction::emplace): anything but a pre-built Fn
 * or nullptr, which keep the overloads that take an Fn.
 */
template <typename F, typename Fn>
concept BuildsInPlace =
    !std::is_same_v<std::decay_t<F>, Fn> &&
    !std::is_same_v<std::decay_t<F>, std::nullptr_t>;

/**
 * A move-only callable of signature R() whose target is stored inline
 * in a Capacity-byte buffer. No heap, ever: construction from a
 * callable larger than Capacity is a compile error.
 *
 * Targets must be nothrow-move-constructible (they relocate when the
 * owning container moves) and at most max_align_t-aligned.
 */
template <typename R, std::size_t Capacity>
class InplaceFunction
{
  public:
    /** Inline capture budget, bytes. */
    static constexpr std::size_t capacity = Capacity;

    InplaceFunction() noexcept = default;
    InplaceFunction(std::nullptr_t) noexcept {}

    template <BuildsInPlace<InplaceFunction> F>
    InplaceFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InplaceFunction(InplaceFunction &&other) noexcept
    {
        moveFrom(other);
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    /** @return true when a target is stored. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    bool
    operator==(std::nullptr_t) const noexcept
    {
        return ops_ == nullptr;
    }

    /** Invoke the target. @pre *this holds a target. */
    R
    operator()()
    {
        return ops_->invoke(buf_);
    }

    /**
     * Destroy the current target (if any) and build @p f straight into
     * the buffer: a container slot that owns an InplaceFunction takes
     * a callable without first building a temporary InplaceFunction
     * and relocating it in.
     */
    template <BuildsInPlace<InplaceFunction> F>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

    /** Destroy the target (if any) and become empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /**
     * Type-erased operations. relocate and destroy are null for a
     * trivially copyable target: it moves by memcpy and needs no
     * destructor call.
     */
    struct Ops
    {
        R (*invoke)(void *);
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static const Ops *
    opsFor()
    {
        if constexpr (std::is_trivially_copyable_v<Fn>) {
            static constexpr Ops table{
                [](void *p) -> R { return (*static_cast<Fn *>(p))(); },
                nullptr,
                nullptr,
            };
            return &table;
        } else {
            static constexpr Ops table{
                [](void *p) -> R { return (*static_cast<Fn *>(p))(); },
                [](void *dst, void *src) {
                    ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                    static_cast<Fn *>(src)->~Fn();
                },
                [](void *p) { static_cast<Fn *>(p)->~Fn(); },
            };
            return &table;
        }
    }

    /** Build @p f in the (empty) buffer. */
    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &>,
                      "callable is not invocable as R()");
        static_assert(sizeof(Fn) <= Capacity,
                      "capture exceeds the inline budget: shrink the "
                      "capture (capture fields or pool indices, not "
                      "whole payloads) or box a cold-path callable "
                      "with tpv::heapWrap()");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned capture");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "captures must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = opsFor<Fn>();
    }

    /** Relocate other's target into this (empty) object. */
    void
    moveFrom(InplaceFunction &other) noexcept
    {
        if (other.ops_) {
            if (other.ops_->relocate)
                other.ops_->relocate(buf_, other.buf_);
            else
                std::memcpy(buf_, other.buf_, Capacity);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

/**
 * The simulator's event-callback type: a void() inline callable. The
 * default 64-byte budget fits every hot-path capture in the tree
 * (payloads travel as pool indices, see net::Link's in-flight pool).
 */
template <std::size_t Capacity = 64>
using InplaceCallback = InplaceFunction<void, Capacity>;

/**
 * Escape hatch for captures that exceed the inline budget on genuinely
 * cold paths: boxes @p f behind one heap allocation and returns an
 * InplaceCallback holding just the owning pointer. Do not use on a
 * per-event hot path — shrink the capture there instead.
 */
template <std::size_t Capacity = 64, typename F>
InplaceCallback<Capacity>
heapWrap(F &&f)
{
    auto boxed = std::make_unique<std::decay_t<F>>(std::forward<F>(f));
    return InplaceCallback<Capacity>(
        [p = std::move(boxed)] { (*p)(); });
}

} // namespace tpv

#endif // TPV_SIM_INLINE_FUNCTION_HH
