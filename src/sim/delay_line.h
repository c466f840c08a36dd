// A delay line: the FIFO for timers that all wait one constant delay.
//
// Deadlines pushed with a constant delay arrive already sorted, so they
// need a FIFO, not a calendar (Varghese & Lauck, "Hashed and Hierarchical
// Timing Wheels", SOSP 1987). A DelayLine keeps `(when, seq, payload)`
// entries in arrival order and one ResidentTimer armed at the head entry;
// only that one key is ever in the calendar. The rest are parked: counted
// in EventQueue::size() (and so in the simulator's hashed queue depth) but
// never filed, cascaded or heaped.
//
// Firing order is exact. Each push reserves the sequence number that a
// Simulator::at at that moment would have taken (EventQueue::reserve_seq,
// which also counts its `scheduled`), and the head timer is armed at that
// entry's exact `(when, seq)` key (ResidentTimer::arm_at). Every entry
// therefore fires exactly where one scheduled closure per entry would have,
// and `scheduled`/`fired` count the same; only the tier hits and
// `peak_live` differ.
//
// Entries live in fixed blocks of kBlockEntries. A block that empties goes
// to a spare list and is reused, so a line that cycles below its
// high-water mark allocates nothing.
//
// Use one only for a delay that is constant per line (pushes must not go
// backwards in time) and for timers that are never cancelled; a delay
// within the ~16.8 ms level-0 window gains nothing, as it never cascades.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "base/assert.h"
#include "base/units.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace es2 {

/// `Deliver` is a member function `void (Owner::*)(T)`; each entry's
/// payload is handed to it when the entry comes due.
template <typename T, auto Deliver>
class DelayLine;

template <typename T, typename Owner, void (Owner::*Deliver)(T)>
class DelayLine<T, Deliver> {
 public:
  static constexpr std::size_t kBlockEntries = 512;

  DelayLine(Simulator& sim, Owner* owner)
      : sim_(sim),
        owner_(owner),
        timer_(sim.queue().resident<&DelayLine::fire>(this)) {}
  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  /// Destroys the payloads of entries that never came due, as the queue
  /// destroys the closures of events that never fired.
  ~DelayLine() {
    if (size_ > 0) timer_.park(-static_cast<std::ptrdiff_t>(size_ - 1));
    while (size_ > 0) pop();
    for (Block* list : {head_, spare_}) {
      while (list != nullptr) delete std::exchange(list, list->next);
    }
  }

  /// Delivers `item` at `when` (>= now(), and >= every earlier push).
  void push(SimTime when, T item) {
    ES2_CHECK_MSG(when >= sim_.now(), "cannot schedule into the past");
    ES2_CHECK_MSG(when >= last_when_, "delay line pushed out of order");
    last_when_ = when;
    const std::uint64_t seq = sim_.queue().reserve_seq();
    if (tail_ == nullptr) {
      head_ = tail_ = take_block();
    } else if (tail_pos_ == kBlockEntries) {
      tail_ = tail_->next = take_block();
      tail_pos_ = 0;
    }
    ::new (static_cast<void*>(tail_->at(tail_pos_++)))
        Entry{when, seq, std::move(item)};
    if (++size_ == 1) {
      timer_.arm_at(when, seq);
    } else {
      timer_.park(1);
    }
  }

  /// Entries pushed and not yet delivered.
  std::size_t size() const { return size_; }

 private:
  static_assert(std::is_nothrow_move_constructible_v<T>);

  struct Entry {
    SimTime when;
    std::uint64_t seq;
    T item;
  };
  struct Block {
    Block* next = nullptr;
    alignas(Entry) unsigned char raw[kBlockEntries * sizeof(Entry)];
    Entry* at(std::size_t i) {
      return std::launder(reinterpret_cast<Entry*>(raw) + i);
    }
  };

  Block* take_block() {
    Block* b = spare_ != nullptr ? std::exchange(spare_, spare_->next)
                                 : new Block;
    b->next = nullptr;
    return b;
  }

  /// Moves the head payload out and retires its entry; size_ > 0.
  T pop() {
    Entry* e = head_->at(head_pos_++);
    T item = std::move(e->item);
    e->~Entry();
    if (--size_ == 0) {
      head_pos_ = tail_pos_ = 0;  // one block stays in use, warm
    } else if (head_pos_ == kBlockEntries) {
      Block* done = std::exchange(head_, head_->next);
      done->next = spare_;
      spare_ = done;
      head_pos_ = 0;
    }
    return item;
  }

  /// The head timer's callback: re-arm at the next entry's key, then
  /// deliver (the delivery may push onto this line again).
  void fire() {
    T item = pop();
    if (size_ > 0) {
      const Entry& next = *head_->at(head_pos_);
      timer_.park(-1);
      timer_.arm_at(next.when, next.seq);
    }
    (owner_->*Deliver)(std::move(item));
  }

  Simulator& sim_;
  Owner* owner_;
  Block* head_ = nullptr;  // oldest block in use; chained through `next`
  Block* tail_ = nullptr;  // newest block in use
  Block* spare_ = nullptr;
  std::size_t head_pos_ = 0;  // next entry to deliver, in head_
  std::size_t tail_pos_ = 0;  // next free entry, in tail_
  std::size_t size_ = 0;
  SimTime last_when_ = 0;
  ResidentTimer timer_;
};

}  // namespace es2
