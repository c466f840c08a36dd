// Perf counters for the event core (see sim/event_queue.h).
//
// One struct per EventQueue, updated inline on the hot path (plain
// integer adds — a Simulator is single-threaded). `wheel_hits` vs
// `near_hits`/`far_hits` shows how well the calendar front-end absorbs
// the workload: near = due in the current 64 us bucket (straight into
// the near tier's sorted run or side heap), wheel = O(1) level-0 bucket
// insert, far = past the ~16.8 ms level-0 window (an O(1) level-1 insert
// within ~4.3 s, an overflow heap insert beyond). Each far event counts
// once in `far_migrations` when it reaches level 0 or the near tier.
#pragma once

#include <cstdint>

namespace es2 {

struct EventQueueStats {
  std::uint64_t scheduled = 0;        // schedule() calls
  std::uint64_t fired = 0;            // callbacks executed
  std::uint64_t cancelled = 0;        // live events cancelled
  std::uint64_t boxed_callbacks = 0;  // callables too big for inline buf
  std::uint64_t near_hits = 0;        // scheduled straight into near tier
  std::uint64_t wheel_hits = 0;       // scheduled into a level-0 bucket
  std::uint64_t far_hits = 0;         // scheduled past the level-0 horizon
  std::uint64_t far_migrations = 0;   // far events reaching level 0/near
  std::uint64_t heap_compactions = 0; // stale-key compaction passes (near
                                      // tier and far heap)
  std::uint64_t peak_live = 0;        // max concurrently scheduled events
  std::uint64_t slabs_allocated = 0;  // pool growth events (not steady state)
};

}  // namespace es2
