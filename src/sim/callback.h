// Move-only continuation: the one type that carries a per-event callback
// through the model (vCPU segments, vhost turns, guest NAPI chains, app
// completions).
//
// Same ops-table idiom as the event core's records (event_queue.h): an
// 8-byte pointer to a static table of type-erased operations plus a
// 24-byte inline buffer, 32 bytes in all, so a
// `[this, done = std::move(done)]` event lambda fits the event record's
// 48-byte inline buffer. Callables
// that fit the buffer (captures of `this`, a reference and a few scalars)
// live in it; larger ones — typically a wrapper that captures another
// Callback — live in a header-free FramePool frame (frame_pool.h). Either
// way, construction, moves, invocation and destruction perform no heap
// allocation once the pool is warm.
//
// Unlike `std::function` the callable is never copied, so move-only
// captures work and a capture's copy constructor never runs on a hop.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "base/assert.h"
#include "sim/frame_pool.h"

namespace es2 {

template <typename Sig>
class Callback;

template <typename R, typename... Args>
class Callback<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  /// True if a `Fn` is stored in the inline buffer rather than a frame.
  template <typename Fn>
  static constexpr bool stored_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, Callback> &&
                std::is_invocable_r_v<R, Fn&, Args...>>>
  Callback(F&& fn) {  // implicit, like std::function
    if constexpr (stored_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    } else {
      static_assert(sizeof(Fn) <= FramePool::kMaxFrame,
                    "callable exceeds the largest FramePool frame");
      static_assert(alignof(Fn) <= FramePool::kGranule,
                    "callable is over-aligned for a FramePool frame");
      void* frame = FramePool::allocate(kClass<Fn>);
      try {
        ::new (frame) Fn(std::forward<F>(fn));
      } catch (...) {
        FramePool::release(frame, kClass<Fn>);
        throw;
      }
      std::memcpy(buf_, &frame, sizeof(frame));
    }
    ops_ = &kOps<Fn>;
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      // Destroy the old callable only after taking the new one: it may own
      // `other` (a continuation reassigned from its own capture).
      Callback old(std::move(*this));
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const Callback& cb, std::nullptr_t) noexcept {
    return cb.ops_ == nullptr;
  }

  /// Invokes the callable; it stays owned by this Callback (so a throwing
  /// call is released with it). Must not be empty.
  R operator()(Args... args) const {
    ES2_DCHECK(ops_ != nullptr);
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True while the callable lives in a FramePool frame (tests).
  bool pooled() const noexcept { return ops_ != nullptr && ops_->pooled; }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;  // null: copy the bytes
    void (*destroy)(void* buf) noexcept;              // null: nothing to do
    bool pooled;
  };

  template <typename Fn>
  static constexpr std::size_t kClass = FramePool::class_of(sizeof(Fn));

  template <typename Fn>
  static Fn& target(void* buf) noexcept {
    if constexpr (stored_inline<Fn>) {
      return *std::launder(static_cast<Fn*>(buf));
    } else {
      Fn* frame;
      std::memcpy(&frame, buf, sizeof(frame));
      return *frame;
    }
  }

  template <typename Fn>
  static R invoke(void* buf, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      target<Fn>(buf)(std::forward<Args>(args)...);
    } else {
      return target<Fn>(buf)(std::forward<Args>(args)...);
    }
  }

  template <typename Fn>
  static void relocate(void* dst, void* src) noexcept {
    Fn& from = target<Fn>(src);
    ::new (dst) Fn(std::move(from));
    from.~Fn();
  }

  template <typename Fn>
  static void destroy(void* buf) noexcept {
    Fn& fn = target<Fn>(buf);
    fn.~Fn();
    if constexpr (!stored_inline<Fn>) FramePool::release(&fn, kClass<Fn>);
  }

  template <typename Fn>
  static constexpr Ops make_ops() {
    constexpr bool in = stored_inline<Fn>;
    return Ops{
        &invoke<Fn>,
        in && !std::is_trivially_copyable_v<Fn> ? &relocate<Fn> : nullptr,
        !in || !std::is_trivially_destructible_v<Fn> ? &destroy<Fn> : nullptr,
        !in,
    };
  }

  template <typename Fn>
  static constexpr Ops kOps = make_ops<Fn>();

  void relocate_from(Callback& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
  }

  void reset() noexcept {
    if (const Ops* ops = std::exchange(ops_, nullptr)) {
      if (ops->destroy != nullptr) ops->destroy(buf_);
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) mutable unsigned char buf_[kInlineBytes];
};

static_assert(sizeof(Callback<void()>) == 32);

}  // namespace es2
