// Deterministic discrete-event queue — zero-allocation event core.
//
// Three pieces, replacing the seed's binary heap of heap-allocated
// `std::function` entries:
//
//  * A slab-pooled event store: fixed-size `EventRecord`s in 256-record
//    slabs with a free list. Records never move, so callbacks are
//    constructed once, in place, in a `kInlineCallbackCapacity`-byte
//    inline buffer (type-erased through a static ops vtable). Callables
//    larger than the buffer fall back to one boxed heap allocation; the
//    `boxed_callbacks` counter proves the steady state never takes that
//    path. After warm-up, schedule/cancel/fire perform zero heap
//    allocations.
//
//  * Generation-counted handles: `{slot, generation}` plus a shared
//    reference to the pool core. `cancel()` and `pending()` are O(1);
//    cancellation destroys the callback and reclaims the slot
//    immediately (no lazy heap skimming of whole entries — at most a
//    16-byte stale key stays behind, see below). Handles may outlive
//    the queue: the core is freed when the last handle drops it.
//
//  * A calendar-queue front-end keyed on `SimTime`: a small "near" heap
//    carries everything due in the current 2^kBucketShift-ns bucket or
//    earlier, a kWheelBuckets-slot timer wheel of intrusive lists
//    covers the next ~1 ms, and a sorted overflow heap holds far-future
//    events, migrating into the wheel as the cursor advances. Every
//    event carries a global sequence number and the near heap orders by
//    (when, seq), so firing order is exactly the seed's deterministic
//    (time, insertion-order) contract, independent of bucket layout.
//
// Cancelled events that sit in one of the two heaps leave a stale
// 24-byte key which is dropped when it surfaces; heaps compact
// themselves when more than half their keys are stale, so cancel-heavy
// workloads cannot bloat the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/units.h"
#include "stats/event_stats.h"

namespace es2 {

class EventQueue;

namespace detail {

/// Inline storage for a scheduled callback. All model lambdas in this
/// codebase capture at most a `this` pointer, a couple of scalars, a
/// PacketPtr (8 bytes) or one `Callback` continuation (32 bytes, see
/// sim/callback.h); 48 bytes holds them all and keeps the whole record at
/// 96 bytes (1.5 cache lines).
inline constexpr std::size_t kInlineCallbackCapacity = 48;

inline constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

/// Type-erased operations on a callback stored in an EventRecord buffer.
struct CallbackOps {
  void (*invoke)(void* buf);
  void (*destroy)(void* buf);
};

template <typename Fn>
struct InlineOps {
  static void invoke(void* buf) { (*static_cast<Fn*>(buf))(); }
  static void destroy(void* buf) { static_cast<Fn*>(buf)->~Fn(); }
  static constexpr CallbackOps ops{&invoke, &destroy};
};

template <typename Fn>
struct BoxedOps {
  static Fn*& box(void* buf) { return *static_cast<Fn**>(buf); }
  static void invoke(void* buf) { (*box(buf))(); }
  static void destroy(void* buf) { delete box(buf); }
  static constexpr CallbackOps ops{&invoke, &destroy};
};

/// Where a live event currently lives (drives O(1) cancellation).
enum class EventLocation : std::uint8_t {
  kFree = 0,   // on the free list
  kNear,       // keyed into the near heap
  kWheel,      // linked into a wheel bucket
  kFar,        // keyed into the far overflow heap
};

/// One pooled event. Records never move once allocated, so the callback
/// buffer is stable for in-place construction and invocation.
struct EventRecord {
  SimTime when = 0;
  std::uint64_t seq = 0;
  std::uint32_t gen = 0;          // bumped on fire/cancel/free
  EventLocation loc = EventLocation::kFree;
  std::uint32_t prev = kInvalidSlot;  // wheel-bucket list / unused
  std::uint32_t next = kInvalidSlot;  // wheel-bucket list / free list
  std::uint32_t bucket = 0;           // wheel index while loc == kWheel
  const CallbackOps* ops = nullptr;
  alignas(std::max_align_t) unsigned char buf[kInlineCallbackCapacity];
};

/// Key stored in the near/far heaps. Stale keys (generation mismatch)
/// are skimmed when they surface.
struct HeapKey {
  SimTime when;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

struct KeyLater {
  bool operator()(const HeapKey& a, const HeapKey& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

/// The pool + calendar state. Owned jointly by the EventQueue and any
/// outstanding handles, so a handle can always safely answer
/// cancel()/pending() even after its queue is destroyed.
class EventCore {
 public:
  static constexpr int kBucketShift = 12;           // 4096 ns per bucket
  static constexpr std::uint32_t kWheelBuckets = 256;
  static constexpr std::uint32_t kSlabSize = 256;

  EventCore() = default;
  ~EventCore() { close(); }
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  /// Destroys every un-fired callback and invalidates all handles.
  /// Called when the owning queue dies; outstanding handles then report
  /// pending() == false and cancel() as a no-op.
  void close();

  /// Pops a record off the free list (growing by one slab if empty) —
  /// the caller constructs the callback into `record(slot).buf` and
  /// then calls enqueue().
  std::uint32_t acquire_slot();

  /// Returns a slot obtained from acquire_slot() that was never
  /// enqueue()d (callback construction threw). No generation bump is
  /// needed: no handle was ever issued for it and no callback lives in
  /// its buffer.
  void release_unqueued_slot(std::uint32_t slot) {
    EventRecord& r = record(slot);
    r.next = free_head_;
    free_head_ = slot;
  }

  EventRecord& record(std::uint32_t slot) {
    return slabs_[slot / kSlabSize]->records[slot % kSlabSize];
  }
  const EventRecord& record(std::uint32_t slot) const {
    return slabs_[slot / kSlabSize]->records[slot % kSlabSize];
  }

  /// Files a freshly constructed event into the calendar (near heap,
  /// wheel bucket, or far heap by `when`) and stamps its sequence.
  void enqueue(std::uint32_t slot, SimTime when);

  /// O(1): destroys the callback, bumps the generation and reclaims the
  /// slot. Wheel entries unlink immediately; heap entries leave a stale
  /// key behind.
  void cancel(std::uint32_t slot, std::uint32_t gen);

  bool pending(std::uint32_t slot, std::uint32_t gen) const {
    return record(slot).loc != EventLocation::kFree &&
           record(slot).gen == gen;
  }

  bool has_next() const { return live_ > 0; }
  SimTime next_time();
  SimTime pop_and_run();

  std::size_t live() const { return live_; }
  const EventQueueStats& stats() const { return stats_; }
  EventQueueStats& stats() { return stats_; }

 private:
  struct Slab {
    EventRecord records[kSlabSize];
  };
  struct Bucket {
    std::uint32_t head = kInvalidSlot;
  };

  static std::uint64_t bucket_index(SimTime when) {
    return static_cast<std::uint64_t>(when) >> kBucketShift;
  }

  void free_slot(std::uint32_t slot);
  void unlink_from_wheel(EventRecord& r, std::uint32_t slot);
  void push_near(std::uint32_t slot, EventRecord& r);
  void push_far(std::uint32_t slot, EventRecord& r);
  void link_wheel(std::uint32_t slot, EventRecord& r);

  /// Drops stale keys off a heap top; compacts when >half stale.
  void skim(std::vector<HeapKey>& heap, std::size_t& stale);
  void maybe_compact(std::vector<HeapKey>& heap, std::size_t& stale);

  /// Advances the wheel cursor until the near heap holds the earliest
  /// live event. Requires live_ > 0.
  void refill_near();
  /// Pulls far-heap events that now fall inside the wheel window.
  void migrate_far();
  /// Absolute index of the next occupied wheel bucket after cursor_, or
  /// 0 with `found=false` when the wheel is empty.
  std::uint64_t next_occupied_bucket(bool& found) const;

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::uint32_t free_head_ = kInvalidSlot;

  std::vector<HeapKey> near_;  // events with bucket_index(when) <= cursor_
  std::size_t near_stale_ = 0;
  std::vector<HeapKey> far_;   // events at or past the wheel horizon
  std::size_t far_stale_ = 0;
  Bucket wheel_[kWheelBuckets];
  std::uint64_t occupied_[kWheelBuckets / 64] = {};
  std::uint64_t cursor_ = 0;   // absolute bucket index currently drained

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  EventQueueStats stats_;
};

}  // namespace detail

/// Handle for a scheduled event; cheap to copy, may outlive the event
/// and the queue itself.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly,
  /// on an empty handle, or after the event has fired.
  void cancel() {
    if (core_) core_->cancel(slot_, gen_);
  }

  /// True if the event is still scheduled to fire.
  bool pending() const { return core_ && core_->pending(slot_, gen_); }

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<detail::EventCore> core, std::uint32_t slot,
              std::uint32_t gen)
      : core_(std::move(core)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::EventCore> core_;
  std::uint32_t slot_ = detail::kInvalidSlot;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() : core_(std::make_shared<detail::EventCore>()) {}
  ~EventQueue() { core_->close(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`. Events at the same
  /// instant fire in scheduling order. Callables up to
  /// `detail::kInlineCallbackCapacity` bytes (and at most
  /// `max_align_t`-aligned — the record buffer guarantees no more) are
  /// stored inline in the pooled record (no allocation); larger or
  /// over-aligned ones are boxed.
  template <typename F>
  EventHandle schedule(SimTime when, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "callback must be invocable");
    detail::EventCore& core = *core_;
    const std::uint32_t slot = core.acquire_slot();
    detail::EventRecord& r = core.record(slot);
    // Copy-construction from an lvalue F (or the boxed `new`) may throw
    // even when the move is noexcept; give the slot back on unwind so it
    // is not stranded off both the free list and the calendar.
    try {
      if constexpr (sizeof(Fn) <= detail::kInlineCallbackCapacity &&
                    alignof(Fn) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        ::new (static_cast<void*>(r.buf)) Fn(std::forward<F>(fn));
        r.ops = &detail::InlineOps<Fn>::ops;
      } else {
        ::new (static_cast<void*>(r.buf)) Fn*(new Fn(std::forward<F>(fn)));
        r.ops = &detail::BoxedOps<Fn>::ops;
        core.stats().boxed_callbacks++;
      }
    } catch (...) {
      core.release_unqueued_slot(slot);
      throw;
    }
    core.enqueue(slot, when);
    return EventHandle(core_, slot, r.gen);
  }

  /// True if a live (non-cancelled) event remains.
  bool has_next() const { return core_->has_next(); }

  /// Time of the earliest live event; `has_next()` must be true.
  SimTime next_time() { return core_->next_time(); }

  /// Pops and runs the earliest live event, returning its time.
  SimTime pop_and_run() { return core_->pop_and_run(); }

  /// Live (scheduled, not cancelled) events.
  size_t size() const { return core_->live(); }

  /// Perf counters for this queue (see stats/event_stats.h).
  const EventQueueStats& stats() const { return core_->stats(); }

 private:
  std::shared_ptr<detail::EventCore> core_;
};

}  // namespace es2
