// Direct-indexed id -> SimTime table for request/connection correlation.
//
// The load generators remember when each outstanding request id was sent
// (ping probes, memaslap requests, httperf and storm SYNs) and forget it
// when the answer arrives. Every one of them issues ids sequentially, so
// an id's home slot is its low bits (`id & mask`): a window of recent ids
// fills neighbouring slots and a lookup reads one slot, with no hashing
// and no probing. The slot array doubles when the live count would pass
// half of it (its size follows the count, never the id span) and never
// shrinks, so a window of outstanding ids that only cycles performs no
// allocation.
//
// When the live ids span more than the array, two of them can share a
// home slot. The older (smaller) one then moves to a side table, an
// open-addressed hash table (linear probing, backward-shift deletion).
// `take` looks there only when it is non-empty, so the common case never
// probes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/assert.h"
#include "base/units.h"

namespace es2 {

class IdTimeTable {
 public:
  std::size_t size() const { return size_; }

  /// Records `at` for `id`, replacing any earlier entry.
  void put(std::uint64_t id, SimTime at) {
    ES2_CHECK_MSG(id != kEmpty, "reserved id");
    // Look for the id before growing: replacing an entry adds nothing.
    if (size_ != 0) {
      Slot& s = slots_[id & mask()];
      if (s.id == id) {
        s.at = at;
        return;
      }
      if (SimTime* t = side_.find(id)) {
        *t = at;
        return;
      }
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(id, at);
    ++size_;
  }

  /// Removes `id`, returning its time, or nullopt if it is absent.
  std::optional<SimTime> take(std::uint64_t id) {
    if (size_ == 0 || id == kEmpty) return std::nullopt;
    Slot& s = slots_[id & mask()];
    if (s.id == id) {
      s.id = kEmpty;
      --size_;
      return s.at;
    }
    if (side_.size() == 0) return std::nullopt;
    const std::optional<SimTime> at = side_.take(id);
    if (at) --size_;
    return at;
  }

  /// Serializes the entries in ascending id order: u32 count, then
  /// (u64 id, i64 time) pairs. `Writer` is a SnapshotWriter (a template
  /// parameter so that base/ does not depend on snapshot/).
  template <typename Writer>
  void snapshot(Writer& w) const {
    std::vector<Slot> live;
    live.reserve(size_);
    for (const std::vector<Slot>* slots : {&slots_, &side_.slots()}) {
      for (const Slot& s : *slots) {
        if (s.id != kEmpty) live.push_back(s);
      }
    }
    std::sort(live.begin(), live.end(),
              [](const Slot& a, const Slot& b) { return a.id < b.id; });
    w.put_u32(static_cast<std::uint32_t>(live.size()));
    for (const Slot& s : live) {
      w.put_u64(s.id);
      w.put_i64(s.at);
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t id = kEmpty;
    SimTime at = 0;
  };

  /// The ids displaced from their home slot: linear probing with
  /// Fibonacci hashing and backward-shift deletion (no tombstones). It
  /// doubles on its own count and never shrinks.
  class SideTable {
   public:
    std::size_t size() const { return size_; }
    const std::vector<Slot>& slots() const { return slots_; }

    SimTime* find(std::uint64_t id) {
      if (size_ == 0) return nullptr;
      for (std::size_t i = home(id);; i = (i + 1) & mask()) {
        if (slots_[i].id == id) return &slots_[i].at;
        if (slots_[i].id == kEmpty) return nullptr;
      }
    }

    /// Adds an id that is not present.
    void add(std::uint64_t id, SimTime at) {
      if (2 * (size_ + 1) > slots_.size()) grow();
      std::size_t i = home(id);
      while (slots_[i].id != kEmpty) i = (i + 1) & mask();
      slots_[i] = Slot{id, at};
      ++size_;
    }

    std::optional<SimTime> take(std::uint64_t id) {
      std::size_t i = home(id);
      while (slots_[i].id != id) {
        if (slots_[i].id == kEmpty) return std::nullopt;
        i = (i + 1) & mask();
      }
      const SimTime at = slots_[i].at;
      // Backward-shift deletion: pull later members of the probe run into
      // the hole unless their home lies cyclically in (hole, j].
      for (std::size_t j = (i + 1) & mask(); slots_[j].id != kEmpty;
           j = (j + 1) & mask()) {
        const std::size_t k = home(slots_[j].id);
        const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
        if (stays) continue;
        slots_[i] = slots_[j];
        i = j;
      }
      slots_[i].id = kEmpty;
      --size_;
      return at;
    }

    /// Empties the table, keeping its storage.
    void clear() {
      for (Slot& s : slots_) s.id = kEmpty;
      size_ = 0;
    }

   private:
    std::size_t mask() const { return slots_.size() - 1; }
    // Fibonacci hashing: sequential ids spread over the whole table.
    std::size_t home(std::uint64_t id) const {
      return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    void grow() {
      std::vector<Slot> old = std::move(slots_);
      const std::size_t cap = old.empty() ? 16 : 2 * old.size();
      slots_.assign(cap, Slot{});
      shift_ = 64;
      for (std::size_t c = cap; c > 1; c /= 2) --shift_;
      size_ = 0;
      for (const Slot& s : old) {
        if (s.id != kEmpty) add(s.id, s.at);
      }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
  };

  std::size_t mask() const { return slots_.size() - 1; }

  /// Puts an absent id in its home slot. Of two ids sharing a home, the
  /// newer (larger) one keeps it and the older goes to the side table.
  void place(std::uint64_t id, SimTime at) {
    Slot& s = slots_[id & mask()];
    if (s.id != kEmpty) {
      if (s.id > id) {
        side_.add(id, at);
        return;
      }
      side_.add(s.id, s.at);
    }
    s = Slot{id, at};
  }

  void grow() {
    // Gather every entry at the front of the old array, which has room
    // (the live count is at most half of it), then place them anew; the
    // side table keeps its storage for the ids that still collide.
    std::vector<Slot> old = std::move(slots_);
    std::size_t n = 0;
    for (const Slot& s : old) {
      if (s.id != kEmpty) old[n++] = s;
    }
    for (const Slot& s : side_.slots()) {
      if (s.id != kEmpty) old[n++] = s;
    }
    side_.clear();
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    for (std::size_t i = 0; i < n; ++i) place(old[i].id, old[i].at);
  }

  std::vector<Slot> slots_;  // slot i holds an id with low bits i
  SideTable side_;
  std::size_t size_ = 0;  // entries in slots_ and side_
};

}  // namespace es2
