// Deterministic discrete-event queue — zero-allocation event core.
//
// Three pieces, replacing the seed's binary heap of heap-allocated
// `std::function` entries:
//
//  * A slab-pooled event store: fixed-size `EventRecord`s in 256-record
//    slabs with a free list. Records never move, so callbacks are
//    constructed once, in place, in a `kInlineCallbackCapacity`-byte
//    inline buffer (type-erased through a static `{fire, destroy}` ops
//    table; `fire` invokes and then destroys the callable, so dispatch
//    is one indirect call). Callables larger than the buffer fall back
//    to one boxed heap allocation; the `boxed_callbacks` counter proves
//    the steady state never takes that path. After warm-up,
//    schedule/cancel/fire perform zero heap allocations.
//
//  * Generation-counted handles: `{slot, generation}` plus a counted
//    reference to the pool core. `cancel()` and `pending()` are O(1);
//    cancellation destroys the callback and reclaims the slot
//    immediately (no lazy heap skimming of whole entries — at most a
//    24-byte stale key stays behind, see below). Handles may outlive
//    the queue: the core is freed when the last handle drops it. The
//    count is not atomic: a core and its handles are used by one thread
//    at a time (each Simulator is a single-threaded world), the same
//    rule PacketPtr relies on.
//
//  * A calendar-queue front-end keyed on `SimTime`, four tiers deep: a
//    small "near" tier carries everything due in the current
//    2^kBucketShift-ns bucket or earlier; a level-0 timing wheel of
//    kWheelBuckets intrusive lists (one 65,536-ns bucket each) covers the
//    next ~16.8 ms; a level-1 wheel of kWheelBuckets lists (one 2^24-ns
//    "epoch" = 256 level-0 buckets each) covers the next ~4.3 s; and a
//    sorted overflow ("far") heap holds the rest. One placement rule,
//    place(), files an event by its bucket relative to the cursor, on
//    schedule and again whenever the cursor moves: a level-1 epoch
//    cascades through it into level 0 / near once the cursor reaches
//    the epoch's start, and far events cascade into the wheels as the
//    horizon reaches them (Varghese & Lauck's hierarchical wheel).
//    Every event carries a global sequence number and only the near
//    tier fires, in (when, seq) order, so firing order is exactly the
//    deterministic (time, insertion-order) contract, independent of
//    tier layout.
//
//  * The near tier is the Ladder Queue's sorted bottom (Tang, Goh &
//    Thng, TOMACS 2005): a run of keys sorted ascending from a head
//    index, plus a small side heap. Keys scheduled into the current
//    bucket arrive almost in order, so the common insert is a tail
//    append and every pop from the run is O(1); a key that would land
//    more than kNearSlack places before the run's end goes to the side
//    heap instead, and the next key is the smaller of the two heads. A
//    bucket that cascades into the empty tier is appended and sorted
//    once. Both share one buffer, the run growing up from its front and
//    the heap down from its back; the run's consumed prefix is dropped
//    before the buffer grows.
//
// Wheel entries unlink on cancel in O(1). Cancelled events that sit in
// the near tier or the far heap leave a stale 24-byte key which is
// dropped when it surfaces; each compacts itself when more than half its
// keys are stale, so cancel-heavy workloads cannot bloat the queue.
//
// A `ResidentTimer` is the re-armable alternative for an owner that keeps
// at most one event of one kind pending for its whole life (a thread's
// segment completion, a periodic tick): it binds
// one record to `(owner, member function)` once, and each arm re-keys
// that record instead of acquiring a slot, constructing a closure and
// issuing a handle. Between arms the record sits idle (`kIdle`), off the
// free list and out of the calendar. A DelayLine (sim/delay_line.h) puts
// one in front of a FIFO of constant-delay entries, armed at each entry's
// reserved key in turn (reserve_seq, ResidentTimer::arm_at); the entries
// behind it are parked, and size() counts them.
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
/// `fire` invokes the callable and then destroys it, also when the call
/// throws; `destroy` drops a callable that never fired (cancel, close).
/// A resident binding (ResidentOps) is the exception: its `fire` only
/// invokes, because the record keeps the binding for the next arm.
struct CallbackOps {
  void (*fire)(void* buf);
  void (*destroy)(void* buf);
};

template <typename Fn>
struct InlineOps {
  static void fire(void* buf) {
    struct Destroyer {
      Fn* fn;
      ~Destroyer() { fn->~Fn(); }
    } guard{static_cast<Fn*>(buf)};
    (*guard.fn)();
  }
  static void destroy(void* buf) { static_cast<Fn*>(buf)->~Fn(); }
  static constexpr CallbackOps ops{&fire, &destroy};
};

/// A resident timer's binding: the `Owner*` sits in the record buffer,
/// the member function in the type. One static table per (Owner, Method),
/// so the ops pointer names the firing site like any scheduled lambda's.
/// Nothing to destroy: the record keeps the binding until the timer dies.
template <typename Owner, void (Owner::*Method)()>
struct ResidentOps {
  static void fire(void* buf) {
    (static_cast<Owner*>(*static_cast<void**>(buf))->*Method)();
  }
  static void destroy(void*) {}
  static constexpr CallbackOps ops{&fire, &destroy};
};

template <typename Fn>
struct BoxedOps {
  static Fn*& box(void* buf) { return *static_cast<Fn**>(buf); }
  static void fire(void* buf) {
    const std::unique_ptr<Fn> owned(box(buf));
    (*owned)();
  }
  static void destroy(void* buf) { delete box(buf); }
  static constexpr CallbackOps ops{&fire, &destroy};
};

/// Where a live event currently lives (drives O(1) cancellation).
enum class EventLocation : std::uint8_t {
  kFree = 0,   // on the free list
  kNear,       // keyed into the near tier (sorted run or side heap)
  kWheel0,     // linked into a level-0 wheel bucket
  kWheel1,     // linked into a level-1 wheel bucket (an epoch)
  kFar,        // keyed into the far overflow heap
  kIdle,       // bound to a resident timer, not armed
};

/// One pooled event. Records never move once allocated, so the callback
/// buffer is stable for in-place construction and invocation.
struct EventRecord {
  SimTime when = 0;
  std::uint64_t seq = 0;
  std::uint32_t gen = 0;          // bumped on fire/cancel/free
  EventLocation loc = EventLocation::kFree;
  bool resident = false;          // bound to a ResidentTimer for life
  std::uint32_t prev = kInvalidSlot;  // wheel-bucket list / unused
  std::uint32_t next = kInvalidSlot;  // wheel-bucket list / free list
  std::uint32_t bucket = 0;           // wheel slot while in a wheel
  const CallbackOps* ops = nullptr;
  alignas(std::max_align_t) unsigned char buf[kInlineCallbackCapacity];
};

/// Key stored in the near tier and the far heap. Stale keys (generation
/// mismatch) are skimmed when they surface.
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

struct KeyEarlier {
  bool operator()(const HeapKey& a, const HeapKey& b) const {
    return KeyLater{}(b, a);
  }
};

/// The pool + calendar state. Owned jointly by the EventQueue and any
/// outstanding handles through an intrusive, non-atomic reference count
/// (the queue holds one reference, each handle one more), so a handle
/// can always safely answer cancel()/pending() even after its queue is
/// destroyed. A core and all of its handles must be used by one thread
/// at a time.
class EventCore {
 public:
  static constexpr int kBucketShift = 16;           // 65,536 ns per bucket
  static constexpr std::uint32_t kWheelBuckets = 256;  // slots per level
  static constexpr int kEpochShift = 8;  // level-0 buckets per epoch: 256
  static constexpr std::uint32_t kSlabSize = 256;
  /// A near key landing more than this many places before the sorted
  /// run's end goes to the side heap instead of shifting the run.
  static constexpr std::size_t kNearSlack = 8;

  /// `clock`, if given, is the owner's current time: resident timers may
  /// not be armed before it (the Simulator passes its clock).
  explicit EventCore(const SimTime* clock) : clock_(clock) {}
  ~EventCore() { close(); }
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  /// A new core starts with one reference, the creator's.
  void retain() { ++refs_; }
  void release() {
    if (--refs_ == 0) destroy();
  }

  /// Destroys every un-fired callback and invalidates all handles.
  /// Called when the owning queue dies; outstanding handles then report
  /// pending() == false and cancel() as a no-op, and resident timers
  /// lose their records (arm()/cancel() become no-ops).
  void close();
  bool closed() const { return closed_; }

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

  /// Takes the sequence number that a schedule at this moment would
  /// take, and counts the `scheduled` it would count: an owner that
  /// files the event later, at this exact key (arm_resident with a seq),
  /// keeps the global (when, seq) order and the counters of scheduling it
  /// now.
  std::uint64_t reserve_seq() {
    stats_.scheduled++;
    return next_seq_++;
  }

  /// Files a freshly constructed event into the calendar (see place())
  /// and stamps its sequence.
  void enqueue(std::uint32_t slot, SimTime when);
  /// Files it at an exact, already reserved key; counts its tier hit and
  /// `live`, not another `scheduled`.
  void enqueue(std::uint32_t slot, SimTime when, std::uint64_t seq);

  /// O(1): destroys the callback, bumps the generation and reclaims the
  /// slot. Wheel entries (either level) unlink immediately; heap entries
  /// leave a stale key behind.
  void cancel(std::uint32_t slot, std::uint32_t gen);

  bool pending(std::uint32_t slot, std::uint32_t gen) const {
    return record(slot).loc != EventLocation::kFree &&
           record(slot).gen == gen;
  }

  /// Resident records (see ResidentTimer). bind_resident() takes a slot
  /// for life and parks it idle; arm_resident() stamps a sequence and
  /// files it exactly like enqueue() (given a reserved `seq`, it files at
  /// that exact key instead); cancel_resident() unfiles it exactly like
  /// cancel() but parks it idle again; unbind_resident() cancels and
  /// returns the slot to the free list. A fired resident record goes idle
  /// before its callback runs and is never freed.
  std::uint32_t bind_resident(const CallbackOps* ops, void* owner);
  void arm_resident(std::uint32_t slot, SimTime when);
  void arm_resident(std::uint32_t slot, SimTime when, std::uint64_t seq);
  void cancel_resident(std::uint32_t slot);
  void unbind_resident(std::uint32_t slot);
  bool resident_pending(std::uint32_t slot) const {
    const EventLocation loc = record(slot).loc;
    return loc != EventLocation::kIdle && loc != EventLocation::kFree;
  }

  /// Fires events in (when, seq) order until none is left, the earliest
  /// lies past `deadline`, or `max_events` have fired. `now` is set to
  /// each event's time before its callback runs. Returns the number of
  /// events fired.
  std::uint64_t run_until(SimTime deadline, std::uint64_t max_events,
                          SimTime& now);

  std::size_t live() const { return live_; }
  /// Entries that owners hold back for a later exact-key arm (a
  /// DelayLine's entries behind its head): pending, but not filed.
  std::size_t parked() const { return parked_; }
  void add_parked(std::ptrdiff_t n) { parked_ += static_cast<std::size_t>(n); }
  const EventQueueStats& stats() const { return stats_; }
  EventQueueStats& stats() { return stats_; }

 private:
  struct Slab {
    EventRecord records[kSlabSize];
  };
  struct Bucket {
    std::uint32_t head = kInvalidSlot;
  };
  /// One wheel level: kWheelBuckets intrusive lists plus an occupancy
  /// bitmap. Level 0 indexes absolute buckets, level 1 absolute epochs;
  /// position `p` lives in slot `p % kWheelBuckets`. Every linked
  /// position lies in (base, base + kWheelBuckets), where base is the
  /// cursor's position on that level, so a set bit maps back to exactly
  /// one absolute position.
  struct Wheel {
    Bucket buckets[kWheelBuckets];
    std::uint64_t occupied[kWheelBuckets / 64] = {};

    static std::uint32_t slot_of(std::uint64_t pos) {
      return static_cast<std::uint32_t>(pos) & (kWheelBuckets - 1);
    }
    bool occupied_at(std::uint32_t idx) const {
      return (occupied[idx / 64] >> (idx % 64)) & 1;
    }
    void clear();
    /// The first occupied position after `base`, or `found=false`.
    std::uint64_t next_after(std::uint64_t base, bool& found) const;
  };

  static std::uint64_t bucket_index(SimTime when) {
    return static_cast<std::uint64_t>(when) >> kBucketShift;
  }

  /// Deletes the core on its last release; kept out of line so the
  /// inlined release() on every handle stays a decrement and a test.
  void destroy();
  void free_slot(std::uint32_t slot);
  /// Takes a filed record out of the calendar: unlinks a wheel entry or
  /// counts its heap key stale. Returns where it was.
  EventLocation unfile(std::uint32_t slot, EventRecord& r);
  /// Cancel bookkeeping once the record is free or idle (its generation
  /// bumped, so the stale key is recognisably dead to the compaction).
  void note_cancelled(EventLocation was);
  /// Skims both near heads and refills the tier if it ran empty; returns
  /// the earliest live key. Requires live_ > 0.
  const HeapKey& next_key();
  /// Pops the near tier's earliest key `k` and runs its callback.
  void fire(HeapKey k);
  bool near_empty() const { return run_end_ == 0 && side_size_ == 0; }
  /// Files a near key: a tail append or a short insert near the run's
  /// end, else the side heap.
  void push_near(std::uint32_t slot, EventRecord& r);
  /// Appends to the run, which must stay sorted (or be sorted after a
  /// bulk refill).
  void append_run(const HeapKey& k) {
    if (run_end_ + side_size_ == near_.size()) make_near_room();
    near_[run_end_++] = k;
  }
  /// Consumes the run's head key; an emptied run restarts at index 0.
  void pop_run() {
    if (++run_head_ == run_end_) run_head_ = run_end_ = 0;
  }
  std::vector<HeapKey>::iterator near_at(std::size_t i) {
    return near_.begin() + static_cast<std::ptrdiff_t>(i);
  }
  /// The side heap as a range: its top is near_.back().
  auto side_begin() { return near_.rbegin(); }
  auto side_end() {
    return near_.rbegin() + static_cast<std::ptrdiff_t>(side_size_);
  }
  /// Frees a slot between the run and the side heap: drops the run's
  /// consumed prefix, or doubles the buffer.
  void make_near_room();

  void push_far(std::uint32_t slot, EventRecord& r);
  void link(Wheel& w, std::uint32_t idx, std::uint32_t slot, EventRecord& r);
  void unlink(Wheel& w, EventRecord& r, std::uint32_t slot);
  /// Files an event by its bucket b: b <= cursor_ -> near tier; within
  /// the level-0 window -> level 0; epoch within the level-1 window ->
  /// level 1; otherwise the far heap. Sets and returns `r.loc`. A `bulk`
  /// placement (a refill into the empty near tier) appends a near key
  /// unsorted; refill_near() sorts the run once afterwards.
  EventLocation place(std::uint32_t slot, EventRecord& r, bool bulk);
  /// Empties one wheel slot, handing each of its events to a bulk
  /// place(); returns how many it moved.
  std::uint64_t cascade(Wheel& w, std::uint32_t idx);

  /// Drops stale keys off a heap top; compacts when >half stale.
  void skim(std::vector<HeapKey>& heap, std::size_t& stale);
  void maybe_compact(std::vector<HeapKey>& heap, std::size_t& stale);
  /// Drops stale keys off both near heads.
  void skim_near();
  /// Compacts the run and the side heap together when >half stale.
  void maybe_compact_near();

  /// Advances the wheel cursor until the near tier holds the earliest
  /// live event. Requires live_ > 0.
  void refill_near();
  /// Pulls far-heap events that now fall inside the level-1 window.
  void migrate_far();

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::uint32_t free_head_ = kInvalidSlot;

  // The near tier, events with bucket_index(when) <= cursor_, in one
  // buffer: the sorted run grows up from the front, in
  // [run_head_, run_end_), and the side heap of out-of-order keys down
  // from the back, in the last side_size_ slots.
  std::vector<HeapKey> near_;
  std::size_t run_head_ = 0;     // both 0 whenever the run is empty
  std::size_t run_end_ = 0;
  std::size_t side_size_ = 0;
  std::size_t near_stale_ = 0;   // stale keys in the run and side heap
  std::vector<HeapKey> far_;   // events past the level-1 horizon
  std::size_t far_stale_ = 0;
  Wheel wheel0_;               // buckets in (cursor_, cursor_ + 256)
  Wheel wheel1_;               // epochs past cursor_'s, within 256 of it
  std::uint64_t cursor_ = 0;   // absolute bucket index currently drained

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t parked_ = 0;
  std::uint32_t refs_ = 1;
  bool closed_ = false;
  const SimTime* clock_;  // read only while open
  EventQueueStats stats_;
};

}  // namespace detail

/// Handle for a scheduled event; cheap to copy, may outlive the event
/// and the queue itself. Like PacketPtr, its reference count is not
/// atomic: use a handle only on the thread that runs its Simulator.
class EventHandle {
 public:
  EventHandle() noexcept = default;
  EventHandle(const EventHandle& other) noexcept
      : core_(other.core_), slot_(other.slot_), gen_(other.gen_) {
    if (core_ != nullptr) core_->retain();
  }
  EventHandle(EventHandle&& other) noexcept
      : core_(std::exchange(other.core_, nullptr)),
        slot_(other.slot_),
        gen_(other.gen_) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(core_, other.core_);
    slot_ = other.slot_;
    gen_ = other.gen_;
    return *this;
  }
  ~EventHandle() {
    if (core_ != nullptr) core_->release();
  }

  /// Cancels the event if it has not fired yet. Safe to call repeatedly,
  /// on an empty handle, or after the event has fired.
  void cancel() {
    if (core_ != nullptr) core_->cancel(slot_, gen_);
  }

  /// True if the event is still scheduled to fire.
  bool pending() const {
    return core_ != nullptr && core_->pending(slot_, gen_);
  }

 private:
  friend class EventQueue;
  EventHandle(detail::EventCore* core, std::uint32_t slot,
              std::uint32_t gen) noexcept
      : core_(core), slot_(slot), gen_(gen) {
    core_->retain();
  }

  detail::EventCore* core_ = nullptr;
  std::uint32_t slot_ = detail::kInvalidSlot;
  std::uint32_t gen_ = 0;
};

/// A re-armable timer bound to one pooled event record for its owner's
/// lifetime: `(owner, member function)` is bound once, at construction
/// (EventQueue::resident), and every arm re-keys that record. It counts
/// like a scheduled event: an arm is one
/// `scheduled` (plus its near/wheel/far hit, `live`, `peak_live`), a
/// cancel of a pending timer one `cancelled`, a fire one `fired`; and an
/// arm takes the next sequence number, so firing order is the same as a
/// schedule at that point. Only an owner with at most one pending event
/// of the kind may use one: arming a pending timer is a check failure.
/// Like EventHandle it holds a (non-atomic) core reference, so it may
/// outlive its queue; after the queue closes arm()/cancel() are no-ops
/// and pending() is false.
class ResidentTimer {
 public:
  ResidentTimer(const ResidentTimer&) = delete;
  ResidentTimer& operator=(const ResidentTimer&) = delete;
  ~ResidentTimer() {
    core_->unbind_resident(slot_);
    core_->release();
  }

  /// Files the timer to fire at absolute time `when` (>= now() in a
  /// Simulator's queue, as for Simulator::at). The timer must not be
  /// pending; its own callback may re-arm it.
  void arm(SimTime when) {
    if (!core_->closed()) core_->arm_resident(slot_, when);
  }

  /// Files the idle timer at an exact key: `seq` was taken earlier with
  /// EventQueue::reserve_seq(), which already counted its `scheduled`, so
  /// this arm counts only its tier hit. The timer fires exactly where an
  /// event scheduled at the reservation would have.
  void arm_at(SimTime when, std::uint64_t seq) {
    if (!core_->closed()) core_->arm_resident(slot_, when, seq);
  }

  /// Adds `n` (negative to remove) to the entries this timer's owner
  /// holds parked for later arm_at()s; EventQueue::size() counts them.
  void park(std::ptrdiff_t n) {
    if (!core_->closed()) core_->add_parked(n);
  }

  /// Unfiles a pending timer; a no-op when idle or inside its own fire.
  void cancel() {
    if (!core_->closed()) core_->cancel_resident(slot_);
  }

  /// True while armed and not yet fired.
  bool pending() const {
    return !core_->closed() && core_->resident_pending(slot_);
  }

 private:
  friend class EventQueue;
  ResidentTimer(detail::EventCore* core, std::uint32_t slot) noexcept
      : core_(core), slot_(slot) {
    core_->retain();
  }

  detail::EventCore* core_;
  std::uint32_t slot_;
};

class EventQueue {
 public:
  /// `clock`: see detail::EventCore's constructor.
  explicit EventQueue(const SimTime* clock = nullptr)
      : core_(new detail::EventCore(clock)) {}
  ~EventQueue() {
    core_->close();
    core_->release();
  }
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

  /// Binds a resident timer that runs `(owner->*Method)()` when it fires.
  template <auto Method, typename Owner>
  ResidentTimer resident(Owner* owner) {
    const detail::CallbackOps* ops = &detail::ResidentOps<Owner, Method>::ops;
    return ResidentTimer(core_, core_->bind_resident(ops, owner));
  }

  /// See detail::EventCore::reserve_seq (used with ResidentTimer::arm_at).
  std::uint64_t reserve_seq() { return core_->reserve_seq(); }

  /// The dispatch loop: see detail::EventCore::run_until.
  std::uint64_t run_until(SimTime deadline, std::uint64_t max_events,
                          SimTime& now) {
    return core_->run_until(deadline, max_events, now);
  }

  /// Pending events: live (scheduled, not cancelled) records plus the
  /// entries parked behind a resident timer (see ResidentTimer::park), so
  /// a delay line's entries count as the events they stand for.
  size_t size() const { return core_->live() + core_->parked(); }

  /// Perf counters for this queue (see stats/event_stats.h).
  const EventQueueStats& stats() const { return core_->stats(); }

 private:
  detail::EventCore* core_;
};

}  // namespace es2
