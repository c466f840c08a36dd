#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "base/assert.h"

namespace es2 {
namespace detail {

void EventCore::close() {
  // Destroy callbacks of events that never fired (their captures may own
  // resources, exactly like the seed's std::function entries did) and
  // invalidate every outstanding handle via the generation bump.
  for (auto& slab : slabs_) {
    for (EventRecord& r : slab->records) {
      if (r.loc != EventLocation::kFree) {
        if (r.ops != nullptr) {
          r.ops->destroy(r.buf);
          r.ops = nullptr;
        }
        r.gen++;
        r.loc = EventLocation::kFree;
        r.resident = false;
      }
    }
  }
  closed_ = true;
  run_head_ = run_end_ = side_size_ = 0;
  far_.clear();
  near_stale_ = far_stale_ = 0;
  wheel0_.clear();
  wheel1_.clear();
  live_ = 0;
  parked_ = 0;
  // Rebuild the free list from scratch (idempotent), keeping low slots
  // first, so every slab's records stay reachable if the core is used
  // again after close().
  free_head_ = kInvalidSlot;
  for (std::size_t s = slabs_.size(); s-- > 0;) {
    Slab& slab = *slabs_[s];
    const std::uint32_t base = static_cast<std::uint32_t>(s) * kSlabSize;
    for (std::uint32_t i = kSlabSize; i-- > 0;) {
      slab.records[i].prev = kInvalidSlot;
      slab.records[i].next = free_head_;
      free_head_ = base + i;
    }
  }
}

void EventCore::destroy() { delete this; }

std::uint32_t EventCore::acquire_slot() {
  if (free_head_ == kInvalidSlot) {
    ES2_CHECK_MSG(slabs_.size() < kInvalidSlot / kSlabSize,
                  "event pool exhausted");
    const std::uint32_t base =
        static_cast<std::uint32_t>(slabs_.size()) * kSlabSize;
    slabs_.push_back(std::make_unique<Slab>());
    Slab& slab = *slabs_.back();
    // Thread the fresh slab onto the free list, keeping low slots first.
    for (std::uint32_t i = kSlabSize; i-- > 0;) {
      slab.records[i].next = free_head_;
      free_head_ = base + i;
    }
    stats_.slabs_allocated++;
  }
  const std::uint32_t slot = free_head_;
  EventRecord& r = record(slot);
  free_head_ = r.next;
  r.next = kInvalidSlot;
  return slot;
}

void EventCore::free_slot(std::uint32_t slot) {
  EventRecord& r = record(slot);
  if (r.ops != nullptr) {
    r.ops->destroy(r.buf);
    r.ops = nullptr;
  }
  r.gen++;  // invalidate outstanding handles / stale heap keys
  r.loc = EventLocation::kFree;
  r.prev = kInvalidSlot;
  r.next = free_head_;
  free_head_ = slot;
}

void EventCore::make_near_room() {
  // A consumed prefix of at least a quarter of the run is dropped, so
  // the move stays amortised over its pops; otherwise the buffer doubles
  // and the side heap moves to the new end.
  if (run_head_ > 0 && run_head_ * 4 >= run_end_) {
    std::copy(near_at(run_head_), near_at(run_end_), near_.begin());
    run_end_ -= run_head_;
    run_head_ = 0;
    return;
  }
  const std::size_t old = near_.size();
  near_.resize(std::max<std::size_t>(1, 2 * old));
  std::copy(near_at(old - side_size_), near_at(old),
            near_at(near_.size() - side_size_));
}

void EventCore::push_near(std::uint32_t slot, EventRecord& r) {
  r.loc = EventLocation::kNear;
  const HeapKey k{r.when, r.seq, slot, r.gen};
  std::size_t at = run_end_;
  while (at > run_head_ && KeyEarlier{}(k, near_[at - 1])) {
    if (run_end_ - at == kNearSlack) {
      if (run_end_ + side_size_ == near_.size()) make_near_room();
      ++side_size_;
      *(side_end() - 1) = k;
      std::push_heap(side_begin(), side_end(), KeyLater{});
      return;
    }
    --at;
  }
  const std::size_t head = run_head_;
  append_run(k);
  at -= head - run_head_;  // a dropped prefix shifted the run down
  if (at != run_end_ - 1) {
    std::move_backward(near_at(at), near_at(run_end_ - 1), near_at(run_end_));
    near_[at] = k;
  }
}

void EventCore::push_far(std::uint32_t slot, EventRecord& r) {
  r.loc = EventLocation::kFar;
  far_.push_back(HeapKey{r.when, r.seq, slot, r.gen});
  std::push_heap(far_.begin(), far_.end(), KeyLater{});
}

void EventCore::link(Wheel& w, std::uint32_t idx, std::uint32_t slot,
                     EventRecord& r) {
  r.bucket = idx;
  r.prev = kInvalidSlot;
  r.next = w.buckets[idx].head;
  if (r.next != kInvalidSlot) record(r.next).prev = slot;
  w.buckets[idx].head = slot;
  w.occupied[idx / 64] |= std::uint64_t{1} << (idx % 64);
}

void EventCore::unlink(Wheel& w, EventRecord& r, std::uint32_t slot) {
  (void)slot;  // only referenced by the debug check below
  if (r.prev != kInvalidSlot) {
    record(r.prev).next = r.next;
  } else {
    ES2_DCHECK(w.buckets[r.bucket].head == slot);
    w.buckets[r.bucket].head = r.next;
  }
  if (r.next != kInvalidSlot) record(r.next).prev = r.prev;
  if (w.buckets[r.bucket].head == kInvalidSlot) {
    w.occupied[r.bucket / 64] &= ~(std::uint64_t{1} << (r.bucket % 64));
  }
}

EventLocation EventCore::place(std::uint32_t slot, EventRecord& r,
                               bool bulk) {
  const std::uint64_t b = bucket_index(r.when);
  if (b <= cursor_) {
    if (bulk) {
      r.loc = EventLocation::kNear;
      append_run(HeapKey{r.when, r.seq, slot, r.gen});
    } else {
      push_near(slot, r);
    }
  } else if (b < cursor_ + kWheelBuckets) {
    r.loc = EventLocation::kWheel0;
    link(wheel0_, Wheel::slot_of(b), slot, r);
  } else if ((b >> kEpochShift) < (cursor_ >> kEpochShift) + kWheelBuckets) {
    r.loc = EventLocation::kWheel1;
    link(wheel1_, Wheel::slot_of(b >> kEpochShift), slot, r);
  } else {
    push_far(slot, r);
  }
  return r.loc;
}

void EventCore::enqueue(std::uint32_t slot, SimTime when) {
  enqueue(slot, when, reserve_seq());
}

void EventCore::enqueue(std::uint32_t slot, SimTime when,
                        std::uint64_t seq) {
  ES2_CHECK_MSG(when >= 0, "cannot schedule before time 0");
  EventRecord& r = record(slot);
  r.when = when;
  r.seq = seq;
  // The counters keep their single-wheel meaning: far = past the
  // level-0 horizon, whichever of level 1 or the far heap holds it.
  switch (place(slot, r, /*bulk=*/false)) {
    case EventLocation::kNear:
      stats_.near_hits++;
      break;
    case EventLocation::kWheel0:
      stats_.wheel_hits++;
      break;
    default:
      stats_.far_hits++;
      break;
  }
  ++live_;
  if (live_ > stats_.peak_live) stats_.peak_live = live_;
}

EventLocation EventCore::unfile(std::uint32_t slot, EventRecord& r) {
  const EventLocation loc = r.loc;
  if (loc == EventLocation::kWheel0) {
    unlink(wheel0_, r, slot);
  } else if (loc == EventLocation::kWheel1) {
    unlink(wheel1_, r, slot);
  } else if (loc == EventLocation::kNear) {
    // A key cancelled while it is still the last one filed on its side
    // (scheduled, then cancelled before anything else filed there) is
    // taken back outright; any other leaves a stale key.
    auto is_key = [&r, slot](const HeapKey& k) {
      return k.slot == slot && k.gen == r.gen;
    };
    if (run_end_ != 0 && is_key(near_[run_end_ - 1])) {
      if (--run_end_ == run_head_) run_head_ = run_end_ = 0;
    } else if (side_size_ != 0 && is_key(*(side_end() - 1))) {
      --side_size_;  // the heap's last leaf
    } else {
      ++near_stale_;
    }
  } else {
    ++far_stale_;
  }
  return loc;
}

void EventCore::note_cancelled(EventLocation was) {
  stats_.cancelled++;
  --live_;
  if (was == EventLocation::kNear) {
    maybe_compact_near();
  } else if (was == EventLocation::kFar) {
    maybe_compact(far_, far_stale_);
  }
}

void EventCore::cancel(std::uint32_t slot, std::uint32_t gen) {
  EventRecord& r = record(slot);
  if (r.gen != gen || r.loc == EventLocation::kFree) return;
  const EventLocation loc = unfile(slot, r);
  // Reclaim (and bump the generation) BEFORE any compaction so the
  // cancelled key is recognisably dead: compacting first would let it
  // survive the pass while the stale counter resets, and skim() would
  // later underflow that counter when the key finally surfaced.
  free_slot(slot);
  note_cancelled(loc);
}

std::uint32_t EventCore::bind_resident(const CallbackOps* ops, void* owner) {
  const std::uint32_t slot = acquire_slot();
  EventRecord& r = record(slot);
  ::new (static_cast<void*>(r.buf)) void*(owner);
  r.ops = ops;
  r.resident = true;
  r.loc = EventLocation::kIdle;
  return slot;
}

void EventCore::arm_resident(std::uint32_t slot, SimTime when) {
  arm_resident(slot, when, reserve_seq());
}

void EventCore::arm_resident(std::uint32_t slot, SimTime when,
                             std::uint64_t seq) {
  ES2_CHECK_MSG(clock_ == nullptr || when >= *clock_,
                "cannot schedule into the past");
  ES2_CHECK_MSG(record(slot).loc == EventLocation::kIdle,
                "resident timer armed while pending");
  ES2_CHECK(seq < next_seq_);
  enqueue(slot, when, seq);
}

void EventCore::cancel_resident(std::uint32_t slot) {
  EventRecord& r = record(slot);
  if (r.loc == EventLocation::kIdle) return;
  const EventLocation loc = unfile(slot, r);
  // As in cancel(): the generation moves before any compaction.
  r.gen++;
  r.loc = EventLocation::kIdle;
  note_cancelled(loc);
}

void EventCore::unbind_resident(std::uint32_t slot) {
  if (closed_) return;  // close() already reclaimed the slot
  cancel_resident(slot);
  record(slot).resident = false;
  free_slot(slot);
}

void EventCore::skim(std::vector<HeapKey>& heap, std::size_t& stale) {
  while (!heap.empty()) {
    const HeapKey& top = heap.front();
    if (record(top.slot).gen == top.gen) return;  // live key
    std::pop_heap(heap.begin(), heap.end(), KeyLater{});
    heap.pop_back();
    ES2_DCHECK(stale > 0);
    --stale;
  }
}

void EventCore::maybe_compact(std::vector<HeapKey>& heap, std::size_t& stale) {
  if (stale < 64 || stale * 2 <= heap.size()) return;
  // Precondition: every counted-stale key has a mismatched generation
  // (cancel() calls free_slot() before compacting), so exactly `stale`
  // keys are removed here and resetting the counter to 0 is exact.
  auto dead = [this](const HeapKey& k) {
    return record(k.slot).gen != k.gen;
  };
  heap.erase(std::remove_if(heap.begin(), heap.end(), dead), heap.end());
  std::make_heap(heap.begin(), heap.end(), KeyLater{});
  stale = 0;
  stats_.heap_compactions++;
}

void EventCore::skim_near() {
  auto dead = [this](const HeapKey& k) {
    return record(k.slot).gen != k.gen;
  };
  while (run_end_ != 0 && dead(near_[run_head_])) {
    ES2_DCHECK(near_stale_ > 0);
    --near_stale_;
    pop_run();
  }
  while (side_size_ != 0 && dead(near_.back())) {
    ES2_DCHECK(near_stale_ > 0);
    --near_stale_;
    std::pop_heap(side_begin(), side_end(), KeyLater{});
    --side_size_;
  }
}

void EventCore::maybe_compact_near() {
  const std::size_t keys = run_end_ - run_head_ + side_size_;
  if (near_stale_ < 64 || near_stale_ * 2 <= keys) return;
  // As in maybe_compact(): every counted-stale key is already dead. The
  // run keeps its order as it moves down over its consumed prefix, and
  // the side heap's live keys pack towards the buffer's end.
  auto live = [this](const HeapKey& k) {
    return record(k.slot).gen == k.gen;
  };
  std::size_t out = 0;
  for (std::size_t i = run_head_; i < run_end_; ++i) {
    if (live(near_[i])) near_[out++] = near_[i];
  }
  run_head_ = 0;
  run_end_ = out;
  std::size_t kept = 0;
  const auto side = side_begin();
  for (std::size_t i = 0; i < side_size_; ++i) {
    if (live(side[static_cast<std::ptrdiff_t>(i)])) {
      side[static_cast<std::ptrdiff_t>(kept++)] =
          side[static_cast<std::ptrdiff_t>(i)];
    }
  }
  side_size_ = kept;
  std::make_heap(side_begin(), side_end(), KeyLater{});
  near_stale_ = 0;
  stats_.heap_compactions++;
}

void EventCore::Wheel::clear() {
  for (Bucket& b : buckets) b.head = kInvalidSlot;
  for (std::uint64_t& word : occupied) word = 0;
}

std::uint64_t EventCore::Wheel::next_after(std::uint64_t base,
                                           bool& found) const {
  found = false;
  std::uint64_t any = 0;
  for (const std::uint64_t word : occupied) any |= word;
  if (any == 0) return 0;  // the common case for level 1
  const std::uint32_t start = slot_of(base + 1);
  for (std::uint32_t scanned = 0; scanned < kWheelBuckets;) {
    const std::uint32_t idx = (start + scanned) & (kWheelBuckets - 1);
    const std::uint32_t word = idx / 64;
    std::uint64_t bits = occupied[word] >> (idx % 64);
    const std::uint32_t span =
        std::min<std::uint32_t>(64 - idx % 64, kWheelBuckets - scanned);
    if (bits != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
      if (bit < span) {
        // Distance forward from base in circular slot space.
        const std::uint32_t rel = slot_of(idx + bit - slot_of(base));
        found = true;
        return base + rel;
      }
    }
    scanned += span;
  }
  return 0;
}

std::uint64_t EventCore::cascade(Wheel& w, std::uint32_t idx) {
  std::uint32_t slot = w.buckets[idx].head;
  w.buckets[idx].head = kInvalidSlot;
  w.occupied[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
  std::uint64_t moved = 0;
  while (slot != kInvalidSlot) {
    EventRecord& r = record(slot);
    const std::uint32_t next = r.next;
    r.prev = r.next = kInvalidSlot;
    place(slot, r, /*bulk=*/true);
    slot = next;
    ++moved;
  }
  return moved;
}

void EventCore::migrate_far() {
  for (;;) {
    skim(far_, far_stale_);
    if (far_.empty()) return;
    const HeapKey k = far_.front();
    if ((bucket_index(k.when) >> kEpochShift) >=
        (cursor_ >> kEpochShift) + kWheelBuckets) {
      return;
    }
    std::pop_heap(far_.begin(), far_.end(), KeyLater{});
    far_.pop_back();
    // Counted once, on entering level 0 or near; a stop in level 1
    // counts when its epoch cascades.
    if (place(k.slot, record(k.slot), /*bulk=*/true) !=
        EventLocation::kWheel1) {
      stats_.far_migrations++;
    }
  }
}

void EventCore::refill_near() {
  while (near_empty()) {
    // The cursor moves to the earliest of: the next occupied level-0
    // bucket, the start of the next occupied level-1 epoch, or (with
    // both wheels empty) the far heap's top. Every far event lies past
    // the level-1 window, so it never undercuts the other two; and no
    // level-1 epoch starts inside the cursor's own epoch, so a level-0
    // bucket there wins without a level-1 scan.
    bool found0 = false;
    bool found1 = false;
    const std::uint64_t b0 = wheel0_.next_after(cursor_, found0);
    const std::uint64_t epoch = cursor_ >> kEpochShift;
    std::uint64_t e1 = 0;
    if (!found0 || (b0 >> kEpochShift) != epoch) {
      e1 = wheel1_.next_after(epoch, found1);
    }
    if (found1 && (!found0 || (e1 << kEpochShift) <= b0)) {
      // An epoch start wins ties: its events may share the cursor's
      // bucket with level-0 entries, which the drain below then joins.
      cursor_ = e1 << kEpochShift;
      stats_.far_migrations += cascade(wheel1_, Wheel::slot_of(e1));
    } else if (found0) {
      cursor_ = b0;
    } else {
      skim(far_, far_stale_);
      ES2_CHECK_MSG(!far_.empty(), "live event count out of sync");
      cursor_ = bucket_index(far_.front().when);
    }
    // Level 0's window is strictly after the cursor: drain the bucket
    // the cursor now stands on into the near tier, in the same step.
    const std::uint32_t idx = Wheel::slot_of(cursor_);
    if (wheel0_.occupied_at(idx)) cascade(wheel0_, idx);
    // A new epoch moves the level-1 window: admit far events that now
    // fit. Within one epoch every far event stays past the window.
    if ((cursor_ >> kEpochShift) != epoch) migrate_far();
    // Every key above came in through a bulk place() into the empty
    // tier: sort them once.
    std::sort(near_.begin(), near_at(run_end_), KeyEarlier{});
  }
}

const HeapKey& EventCore::next_key() {
  skim_near();
  if (near_empty()) refill_near();
  if (side_size_ == 0) return near_[run_head_];
  if (run_end_ == 0 || KeyEarlier{}(near_.back(), near_[run_head_])) {
    return near_.back();
  }
  return near_[run_head_];
}

void EventCore::fire(HeapKey k) {
  // Sequence numbers are unique, so `k` names the head it came from.
  if (side_size_ != 0 && near_.back().seq == k.seq) {
    std::pop_heap(side_begin(), side_end(), KeyLater{});
    --side_size_;
  } else {
    pop_run();
  }
  EventRecord& r = record(k.slot);
  ES2_DCHECK(r.gen == k.gen);
  // Invalidate handles before running, matching the seed's semantics:
  // during the callback the event is no longer pending and self-cancel
  // is a no-op. The slot is reclaimed only after the callback returns,
  // so reentrant scheduling cannot overwrite the executing closure.
  r.gen++;
  --live_;
  stats_.fired++;
  if (r.resident) {
    // The binding stays and the slot stays bound. The record is idle
    // before the call, so the owner may re-arm (or unbind) it inside.
    r.loc = EventLocation::kIdle;
    r.ops->fire(r.buf);
    return;
  }
  // ops->fire destroys the closure on return and on unwind, so the
  // record no longer owns it; the guard returns the slot to the free
  // list on both paths too.
  const CallbackOps* ops = std::exchange(r.ops, nullptr);
  struct SlotReclaimer {
    EventCore* core;
    std::uint32_t slot;
    ~SlotReclaimer() { core->free_slot(slot); }
  } reclaim{this, k.slot};
  ops->fire(r.buf);
}

std::uint64_t EventCore::run_until(SimTime deadline,
                                   std::uint64_t max_events, SimTime& now) {
  std::uint64_t executed = 0;
  while (executed < max_events && live_ > 0) {
    const HeapKey k = next_key();
    if (k.when > deadline) break;
    // Advance the clock BEFORE running the event, so callbacks observing
    // now() (and deferring follow-up work) see the event's own timestamp.
    now = k.when;
    fire(k);
    ++executed;
  }
  return executed;
}

}  // namespace detail
}  // namespace es2
