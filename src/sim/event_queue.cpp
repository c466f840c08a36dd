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
      }
    }
  }
  near_.clear();
  far_.clear();
  near_stale_ = far_stale_ = 0;
  for (Bucket& b : wheel_) b.head = kInvalidSlot;
  for (std::uint64_t& word : occupied_) word = 0;
  live_ = 0;
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

void EventCore::push_near(std::uint32_t slot, EventRecord& r) {
  r.loc = EventLocation::kNear;
  near_.push_back(HeapKey{r.when, r.seq, slot, r.gen});
  std::push_heap(near_.begin(), near_.end(), KeyLater{});
}

void EventCore::push_far(std::uint32_t slot, EventRecord& r) {
  r.loc = EventLocation::kFar;
  far_.push_back(HeapKey{r.when, r.seq, slot, r.gen});
  std::push_heap(far_.begin(), far_.end(), KeyLater{});
}

void EventCore::link_wheel(std::uint32_t slot, EventRecord& r) {
  const std::uint32_t idx =
      static_cast<std::uint32_t>(bucket_index(r.when)) & (kWheelBuckets - 1);
  r.loc = EventLocation::kWheel;
  r.bucket = idx;
  r.prev = kInvalidSlot;
  r.next = wheel_[idx].head;
  if (r.next != kInvalidSlot) record(r.next).prev = slot;
  wheel_[idx].head = slot;
  occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
}

void EventCore::unlink_from_wheel(EventRecord& r, std::uint32_t slot) {
  (void)slot;  // only referenced by the debug check below
  if (r.prev != kInvalidSlot) {
    record(r.prev).next = r.next;
  } else {
    ES2_DCHECK(wheel_[r.bucket].head == slot);
    wheel_[r.bucket].head = r.next;
  }
  if (r.next != kInvalidSlot) record(r.next).prev = r.prev;
  if (wheel_[r.bucket].head == kInvalidSlot) {
    occupied_[r.bucket / 64] &= ~(std::uint64_t{1} << (r.bucket % 64));
  }
}

void EventCore::enqueue(std::uint32_t slot, SimTime when) {
  ES2_CHECK_MSG(when >= 0, "cannot schedule before time 0");
  EventRecord& r = record(slot);
  r.when = when;
  r.seq = next_seq_++;
  const std::uint64_t b = bucket_index(when);
  if (b <= cursor_) {
    push_near(slot, r);
    stats_.near_hits++;
  } else if (b < cursor_ + kWheelBuckets) {
    link_wheel(slot, r);
    stats_.wheel_hits++;
  } else {
    push_far(slot, r);
    stats_.far_hits++;
  }
  stats_.scheduled++;
  ++live_;
  if (live_ > stats_.peak_live) stats_.peak_live = live_;
}

void EventCore::cancel(std::uint32_t slot, std::uint32_t gen) {
  EventRecord& r = record(slot);
  if (r.gen != gen || r.loc == EventLocation::kFree) return;
  const EventLocation loc = r.loc;
  if (loc == EventLocation::kWheel) {
    unlink_from_wheel(r, slot);
  } else if (loc == EventLocation::kNear) {
    ++near_stale_;
  } else {
    ++far_stale_;
  }
  // Reclaim (and bump the generation) BEFORE any compaction so the
  // cancelled key is recognisably dead: compacting first would let it
  // survive the pass while the stale counter resets, and skim() would
  // later underflow that counter when the key finally surfaced.
  free_slot(slot);
  stats_.cancelled++;
  --live_;
  if (loc == EventLocation::kNear) {
    maybe_compact(near_, near_stale_);
  } else if (loc == EventLocation::kFar) {
    maybe_compact(far_, far_stale_);
  }
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

std::uint64_t EventCore::next_occupied_bucket(bool& found) const {
  // Wheel buckets live strictly inside (cursor_, cursor_ + kWheelBuckets),
  // so each set bit maps back to a unique absolute bucket index.
  const std::uint32_t start =
      (static_cast<std::uint32_t>(cursor_) + 1) & (kWheelBuckets - 1);
  for (std::uint32_t scanned = 0; scanned < kWheelBuckets;) {
    const std::uint32_t idx = (start + scanned) & (kWheelBuckets - 1);
    const std::uint32_t word = idx / 64;
    std::uint64_t bits = occupied_[word] >> (idx % 64);
    const std::uint32_t span =
        std::min<std::uint32_t>(64 - idx % 64, kWheelBuckets - scanned);
    if (bits != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
      if (bit < span) {
        const std::uint32_t abs_idx = (idx + bit) & (kWheelBuckets - 1);
        // Distance forward from cursor_ in circular bucket space.
        const std::uint32_t rel =
            (abs_idx - static_cast<std::uint32_t>(cursor_)) &
            (kWheelBuckets - 1);
        found = true;
        return cursor_ + rel;
      }
    }
    scanned += span;
  }
  found = false;
  return 0;
}

void EventCore::migrate_far() {
  for (;;) {
    skim(far_, far_stale_);
    if (far_.empty()) return;
    const HeapKey k = far_.front();
    if (bucket_index(k.when) >= cursor_ + kWheelBuckets) return;
    std::pop_heap(far_.begin(), far_.end(), KeyLater{});
    far_.pop_back();
    EventRecord& r = record(k.slot);
    if (bucket_index(k.when) <= cursor_) {
      push_near(k.slot, r);
    } else {
      link_wheel(k.slot, r);
    }
    stats_.far_migrations++;
  }
}

void EventCore::refill_near() {
  while (near_.empty()) {
    bool found = false;
    const std::uint64_t next_bucket = next_occupied_bucket(found);
    if (found) {
      cursor_ = next_bucket;
      const std::uint32_t idx =
          static_cast<std::uint32_t>(cursor_) & (kWheelBuckets - 1);
      std::uint32_t slot = wheel_[idx].head;
      wheel_[idx].head = kInvalidSlot;
      occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
      while (slot != kInvalidSlot) {
        EventRecord& r = record(slot);
        const std::uint32_t next = r.next;
        r.prev = r.next = kInvalidSlot;
        push_near(slot, r);
        slot = next;
      }
    } else {
      skim(far_, far_stale_);
      ES2_CHECK_MSG(!far_.empty(), "live event count out of sync");
      cursor_ = bucket_index(far_.front().when);
    }
    // The wheel window moved forward: admit far events that now fit.
    migrate_far();
  }
}

const HeapKey& EventCore::next_key() {
  skim(near_, near_stale_);
  if (near_.empty()) refill_near();
  return near_.front();
}

void EventCore::fire(HeapKey k) {
  std::pop_heap(near_.begin(), near_.end(), KeyLater{});
  near_.pop_back();
  EventRecord& r = record(k.slot);
  ES2_DCHECK(r.gen == k.gen);
  // Invalidate handles before running, matching the seed's semantics:
  // during the callback the event is no longer pending and self-cancel
  // is a no-op. The slot is reclaimed only after the callback returns,
  // so reentrant scheduling cannot overwrite the executing closure.
  r.gen++;
  --live_;
  stats_.fired++;
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
