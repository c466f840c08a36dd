#include "sim/frame_pool.h"

#include <mutex>
#include <new>

namespace es2 {

namespace {

struct SharedState {
  std::mutex mu;
  void* orphans[FramePool::kClasses] = {};  // free frames of exited threads
  void* slabs = nullptr;  // every slab, linked through its first word
  std::size_t slab_count = 0;
};
constinit SharedState g_shared;

// Free frames are poisoned under ASan; the pool itself reads and writes
// their link word through the poison.
void* next_of(void* frame) {
  ES2_POOL_UNPOISON(frame, sizeof(void*));
  void* next = *static_cast<void**>(frame);
  ES2_POOL_POISON(frame, sizeof(void*));
  return next;
}

void set_next(void* frame, void* next) {
  ES2_POOL_UNPOISON(frame, sizeof(void*));
  *static_cast<void**>(frame) = next;
  ES2_POOL_POISON(frame, sizeof(void*));
}

}  // namespace

/// Registered with the thread on its first refill or release; at thread
/// exit it hands the thread's free frames to the orphan lists so they are
/// not stranded.
struct FramePool::ThreadExit {
  bool armed = false;
  ~ThreadExit() {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      void* head = free_lists.head[cls];
      if (head == nullptr) continue;
      void* tail = head;
      for (void* next = next_of(tail); next != nullptr; next = next_of(tail)) {
        tail = next;
      }
      std::lock_guard<std::mutex> lock(g_shared.mu);
      set_next(tail, g_shared.orphans[cls]);
      g_shared.orphans[cls] = head;
      free_lists.head[cls] = nullptr;
    }
  }
};

thread_local FramePool::ThreadExit FramePool::thread_exit;

void FramePool::arm_exit_hook() noexcept {
  thread_exit.armed = true;  // first use constructs it and registers ~ThreadExit
  free_lists.exit_hook_armed = true;
}

void* FramePool::refill(std::size_t cls) {
  if (!free_lists.exit_hook_armed) arm_exit_hook();
  void*& head = free_lists.head[cls];
  {
    std::lock_guard<std::mutex> lock(g_shared.mu);
    if (g_shared.orphans[cls] != nullptr) {
      head = g_shared.orphans[cls];
      g_shared.orphans[cls] = nullptr;
    } else {
      auto* slab = static_cast<unsigned char*>(::operator new(kSlabBytes));
      *reinterpret_cast<void**>(slab) = g_shared.slabs;
      g_shared.slabs = slab;
      ++g_shared.slab_count;
      // Frames start one granule in (past the slab link), so they keep
      // operator new's 16-byte alignment.
      const std::size_t size = frame_bytes(cls);
      for (std::size_t i = (kSlabBytes - kGranule) / size; i-- > 0;) {
        void* frame = slab + kGranule + i * size;
        *static_cast<void**>(frame) = head;
        head = frame;
        ES2_POOL_POISON(frame, size);
      }
    }
  }
  return allocate(cls);
}

std::size_t FramePool::slabs_allocated() {
  std::lock_guard<std::mutex> lock(g_shared.mu);
  return g_shared.slab_count;
}

}  // namespace es2
