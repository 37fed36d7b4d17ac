/**
 * @file
 * Small-buffer move-only callable: the hot-path replacement for
 * `std::function` in the simulator's event and memory-completion
 * plumbing.
 *
 * Every simulated cache miss used to allocate several `std::function`
 * control blocks (the completion callback, its wrapper at each level,
 * and the event-queue record holding it). SmallFunction stores the
 * callable inline and nowhere else: a callable that does not fit
 * `InlineBytes` is a compile error, so the simulation loop performs no
 * callback allocations at all and the compiler checks every capture.
 * It is move-only — callers that used to copy a `std::function` into a
 * lambda capture must `std::move` it instead, which is also what keeps
 * accidental double-invocation bugs visible.
 */

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace spburst
{

template <typename Signature, std::size_t InlineBytes = 48>
class SmallFunction;

/** Move-only callable with @p InlineBytes of inline storage. */
template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes>
{
  public:
    SmallFunction() noexcept = default;

    /** Empty function (same as default construction). */
    SmallFunction(std::nullptr_t) noexcept {}

    /** Inline-storage alignment. Pointer alignment (not max_align_t):
     *  event/memory callbacks capture pointers, integers, and nested
     *  SmallFunctions, never over-aligned types — and max_align_t
     *  padding would inflate every nested callback capture by 16+
     *  bytes (FillCallback would be 96 bytes instead of 80). */
    static constexpr std::size_t kInlineAlign = alignof(void *);

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= InlineBytes &&
                          alignof(Fn) <= kInlineAlign,
                      "callable does not fit SmallFunction's inline "
                      "buffer: capture less, or park the state and "
                      "capture an index");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &inlineOps<Fn>;
    }

    SmallFunction(SmallFunction &&other) noexcept
    {
        moveFrom(std::move(other));
    }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke (undefined when empty, as with std::function minus the
     *  throw — the simulator never invokes empty callbacks). */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct @p dst from @p src, then destroy @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *buf, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(buf)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *buf) noexcept {
            std::launder(reinterpret_cast<Fn *>(buf))->~Fn();
        },
    };

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(SmallFunction &&other) noexcept
    {
        if (other.ops_) {
            other.ops_->relocate(buf_, other.buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    // Buffer first: with the ops pointer last, sizeof(SmallFunction)
    // is exactly InlineBytes + sizeof(void *), so nesting a callback
    // inside a larger one costs no padding.
    alignas(kInlineAlign) unsigned char buf_[InlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace spburst
