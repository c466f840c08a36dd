// Size-class frame pool for per-event model objects.
//
// The event core (event_queue.h) pools its own records; this pool serves
// what rides *inside* events — continuation frames too large for a
// Callback's inline buffer (callback.h) and packets (net/packet.h). Both
// are created and destroyed at event rate, so a general-purpose allocator
// call per object would dominate the model's host cost.
//
//  * Frames are header-free: the size class is a compile-time property of
//    the stored type, so the owner passes it back on release and no
//    per-frame bookkeeping word is spent.
//  * Each thread keeps one singly-linked free list per class (16-byte
//    granules up to kMaxFrame). allocate()/release() are a TLS load, a
//    pointer swap and no atomics.
//  * An empty list grows by one slab from ::operator new, so growth is
//    visible to allocation counters (base/alloc_hook.h). Nothing is
//    reserved up front. Slabs are never freed: a global intrusive list
//    keeps them reachable, and a thread's free frames move to a shared
//    orphan list when it exits, where other threads adopt them before
//    growing.
//  * A frame may be released on a different thread than the one that
//    allocated it (a Callback built on one thread and dropped on another);
//    it simply joins the releasing thread's list.
//  * Under AddressSanitizer every free frame is poisoned, so a
//    use-after-release still faults even though the memory stays owned
//    by the pool.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ES2_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define ES2_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define ES2_POOL_POISON(p, n) ((void)(p), (void)(n))
#define ES2_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace es2 {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;   // frame size and alignment step
  static constexpr std::size_t kMaxFrame = 512;
  static constexpr std::size_t kClasses = kMaxFrame / kGranule;
  static constexpr std::size_t kSlabBytes = 16 * 1024;

  /// Size class holding `bytes` (1 <= bytes <= kMaxFrame).
  static constexpr std::size_t class_of(std::size_t bytes) {
    return (bytes + kGranule - 1) / kGranule - 1;
  }
  static constexpr std::size_t frame_bytes(std::size_t cls) {
    return (cls + 1) * kGranule;
  }

  /// A kGranule-aligned frame of class `cls`.
  static void* allocate(std::size_t cls) {
    void*& head = free_lists.head[cls];
    void* frame = head;
    if (frame == nullptr) return refill(cls);
    ES2_POOL_UNPOISON(frame, frame_bytes(cls));
    head = *static_cast<void**>(frame);
    return frame;
  }

  /// Returns a frame obtained from allocate(cls) on any thread.
  static void release(void* frame, std::size_t cls) noexcept {
    // A thread may only ever release (it destroys callbacks built
    // elsewhere); its frames must still be handed over when it exits.
    if (!free_lists.exit_hook_armed) [[unlikely]] arm_exit_hook();
    void*& head = free_lists.head[cls];
    *static_cast<void**>(frame) = head;
    head = frame;
    ES2_POOL_POISON(frame, frame_bytes(cls));
  }

  /// Slabs carved so far, over all threads and classes (tests, benches).
  static std::size_t slabs_allocated();

 private:
  struct FreeLists {
    void* head[kClasses];
    bool exit_hook_armed;
  };
  struct ThreadExit;
  static thread_local ThreadExit thread_exit;

  // Trivially destructible and constant-initialized, so the hot path is a
  // plain thread-pointer-relative load with no TLS guard or wrapper call.
  static inline constinit thread_local FreeLists free_lists{};

  /// Slow path: adopts orphaned frames or carves a new slab.
  static void* refill(std::size_t cls);
  /// Registers this thread's ThreadExit hook (first refill or release).
  static void arm_exit_hook() noexcept;
};

}  // namespace es2
