// Open-addressed id -> SimTime table for request/connection correlation.
//
// The load generators remember when each outstanding request id was sent
// (ping probes, memaslap requests, httperf and storm SYNs) and forget it
// when the answer arrives. A node-based map allocates on every insert and
// frees on every erase; this table keeps its slots in one array (linear
// probing, backward-shift deletion, so no tombstones build up), grows by
// doubling and never shrinks, so a window of outstanding ids that only
// cycles performs no allocation.
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
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(id);
    while (slots_[i].id != kEmpty && slots_[i].id != id) i = (i + 1) & mask();
    if (slots_[i].id == kEmpty) ++size_;
    slots_[i] = Slot{id, at};
  }

  /// Removes `id`, returning its time, or nullopt if it is absent.
  std::optional<SimTime> take(std::uint64_t id) {
    if (size_ == 0) return std::nullopt;
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

  /// Serializes the entries in ascending id order: u32 count, then
  /// (u64 id, i64 time) pairs. `Writer` is a SnapshotWriter (a template
  /// parameter so that base/ does not depend on snapshot/).
  template <typename Writer>
  void snapshot(Writer& w) const {
    std::vector<Slot> live;
    live.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.id != kEmpty) live.push_back(s);
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
      if (s.id != kEmpty) put(s.id, s.at);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace es2
