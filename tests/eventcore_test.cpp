// Contract tests for the zero-allocation event core: ordering across the
// calendar layers (near heap / wheel / overflow heap), generation-handle
// cancellation semantics, handle-outlives-queue safety, determinism under
// interleaved cancels, inline-callback storage, and the zero-steady-state-
// allocation guarantee (this binary links es2_alloc_hook).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "base/alloc_hook.h"
#include "base/rng.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/simulator.h"

namespace es2 {
namespace {

using detail::kInlineCallbackCapacity;

// ---------------------------------------------------------------------------
// Inline-storage budget: the capture patterns used across the models must
// fit the pooled record's inline buffer (this is what keeps scheduling
// allocation-free). Representative shapes, checked at compile time.
// ---------------------------------------------------------------------------
struct ModelStandIn {
  void* a;
  void* b;
};
static_assert(sizeof(void*) <= kInlineCallbackCapacity,
              "[this] capture must fit inline");
static_assert(sizeof(ModelStandIn) + sizeof(std::int64_t) <=
                  kInlineCallbackCapacity,
              "[this, ptr, scalar] capture must fit inline");
static_assert(sizeof(std::function<void()>) <= kInlineCallbackCapacity,
              "a std::function copy must fit inline (vm timer ticks)");
static_assert(sizeof(PacketPtr) + sizeof(void*) <= kInlineCallbackCapacity,
              "[this, PacketPtr] capture must fit inline (link delivery)");
static_assert(sizeof(Callback<void()>) + sizeof(void*) <=
                  kInlineCallbackCapacity,
              "[this, done] capture must fit inline (segment completions)");

// ---------------------------------------------------------------------------
// Ordering across calendar layers
// ---------------------------------------------------------------------------

TEST(EventCore, OrderingAcrossNearWheelAndFarLayers) {
  // Times chosen to land in all three layers: same-bucket (near), within
  // the ~1ms wheel horizon, and far beyond it.
  Simulator sim;
  std::vector<SimTime> fired;
  const std::vector<SimTime> times = {
      0,       1,        2,          4095,     4096,      5000,
      100000,  999999,   1048575,    1048576,  2000000,   50000000,
      sec(1),  sec(1) + 1, sec(2),   msec(3),  usec(7),   123456789};
  std::vector<SimTime> shuffled = times;
  Rng rng = Rng::stream(7, "shuffle");
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[rng.next_u64() % i]);
  }
  for (SimTime t : shuffled) {
    sim.at(t, [&fired, t] { fired.push_back(t); });
  }
  sim.run_to_completion();
  std::vector<SimTime> expect = times;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(EventCore, SameInstantFifoAcrossLayerMigration) {
  // Events scheduled at the same far-future instant must fire in
  // scheduling order even after migrating far -> wheel -> near.
  Simulator sim;
  std::vector<int> order;
  const SimTime t = sec(3);  // far beyond the wheel horizon
  for (int i = 0; i < 100; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  // Force the cursor to sweep through many buckets first.
  for (SimTime k = 0; k < sec(3); k += msec(50)) sim.at(k, [] {});
  sim.run_to_completion();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventCore, DeferRunsAfterQueuedSameInstantEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.at(usec(5), [&] {
    sim.defer([&] { order.push_back(3); });
  });
  sim.at(usec(5), [&] { order.push_back(1); });
  sim.at(usec(5), [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Cancellation semantics
// ---------------------------------------------------------------------------

TEST(EventCore, CancelThenFireAndDoubleCancelAreSafe) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.at(usec(1), [&] { ++fired; });
  EventHandle b = sim.at(usec(1), [&] { ++fired; });
  EventHandle far = sim.at(sec(5), [&] { ++fired; });
  a.cancel();
  a.cancel();  // double cancel: no-op
  far.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(far.pending());
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
  b.cancel();  // cancel after fire: no-op
  EXPECT_FALSE(b.pending());
}

TEST(EventCore, CancelReclaimsSlotImmediately) {
  // A cancel-heavy workload must not grow the pool: the cancelled slot is
  // reused by the next schedule (the seed's lazy skim kept them queued).
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  for (int i = 0; i < 100000; ++i) {
    EventHandle h = sim.at(sec(1), [] {});
    h.cancel();
  }
  EXPECT_EQ(sim.queue().size(), 0u);
  EXPECT_EQ(stats.cancelled, 100000u);
  EXPECT_EQ(stats.peak_live, 1u);
  EXPECT_EQ(stats.slabs_allocated, 1u);
}

TEST(EventCore, HeapCompactionDuringCancelStormKeepsStaleCountExact) {
  // Regression: cancel() used to run maybe_compact() BEFORE free_slot()
  // bumped the cancelled key's generation, so that key looked live,
  // survived the pass, and the stale counter reset to 0 — when the key
  // later surfaced, skim() underflowed the counter (Debug builds abort
  // on ES2_DCHECK(stale > 0); NDEBUG builds wrap the size_t). Cancelling
  // everything in a large batch makes the final skim walk exactly as
  // many dead keys as the counter recorded, so any miscount trips.
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  for (int round = 0; round < 4; ++round) {
    std::vector<EventHandle> near_events;
    std::vector<EventHandle> far_events;
    for (int i = 0; i < 300; ++i) {
      near_events.push_back(sim.after(1, [] {}));      // near heap
      far_events.push_back(sim.after(sec(3), [] {}));  // far overflow heap
    }
    for (EventHandle& h : near_events) h.cancel();
    for (EventHandle& h : far_events) h.cancel();
    sim.after(2, [] {});  // forces a skim through the cancelled keys
    sim.run_for(usec(1));
  }
  EXPECT_GT(stats.heap_compactions, 0u)
      << "storm did not reach the compaction threshold; bump the counts";
  sim.run_to_completion();
  EXPECT_EQ(sim.queue().size(), 0u);
}

TEST(EventCore, ThrowingCallbackStillReclaimsSlotAndDestroysClosure) {
  // A callback that throws must still have its closure destroyed and its
  // slot returned to the free list (the seed destroyed its std::function
  // during unwind); the queue stays usable afterwards.
  Simulator sim;
  std::shared_ptr<int> payload = std::make_shared<int>(7);
  sim.at(usec(1), [keep = payload] {
    (void)*keep;
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(sim.run_to_completion(), std::runtime_error);
  EXPECT_EQ(payload.use_count(), 1);  // closure destroyed during unwind
  EXPECT_EQ(sim.queue().size(), 0u);
  int fired = 0;
  sim.at(usec(2), [&] { ++fired; });  // reuses the reclaimed slot
  EXPECT_EQ(sim.queue().stats().slabs_allocated, 1u);
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventCore, SlotReuseDoesNotConfuseStaleHandle) {
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle h1 = sim.at(usec(1), [&] { first_fired = true; });
  h1.cancel();
  // The freed slot is immediately reused by the next schedule.
  EventHandle h2 = sim.at(usec(1), [&] { second_fired = true; });
  EXPECT_FALSE(h1.pending());  // stale generation: does not see h2's event
  EXPECT_TRUE(h2.pending());
  h1.cancel();  // must NOT cancel h2's event
  EXPECT_TRUE(h2.pending());
  sim.run_to_completion();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

TEST(EventCore, SelfCancelDuringCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  std::shared_ptr<EventHandle> h = std::make_shared<EventHandle>();
  *h = sim.at(usec(1), [&fired, h] {
    ++fired;
    EXPECT_FALSE(h->pending());  // already consumed, like the seed
    h->cancel();                 // no-op
  });
  sim.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventCore, HandleOutlivesQueue) {
  EventHandle survivor;
  {
    Simulator sim;
    survivor = sim.at(sec(1), [] {});
    EXPECT_TRUE(survivor.pending());
  }
  // The queue is gone; the pooled core lives on through the handle.
  EXPECT_FALSE(survivor.pending());
  survivor.cancel();  // must be safe, not a use-after-free
}

TEST(EventCore, PendingCallbackCapturesAreDestroyedWithQueue) {
  std::shared_ptr<int> payload = std::make_shared<int>(42);
  {
    Simulator sim;
    sim.at(sec(1), [keep = payload] { (void)*keep; });
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(payload.use_count(), 1);  // queue destruction ran the dtor
}

// ---------------------------------------------------------------------------
// Boxed fallback for oversized captures (via EventQueue directly; the
// Simulator static_asserts the inline budget for model call sites)
// ---------------------------------------------------------------------------

TEST(EventCore, OversizedCallbackFallsBackToBox) {
  Simulator sim;
  std::array<std::int64_t, 16> big{};  // 128 bytes > inline capacity
  big[7] = 99;
  std::int64_t seen = 0;
  sim.queue().schedule(usec(1), [big, &seen] { seen = big[7]; });
  EXPECT_EQ(sim.queue().stats().boxed_callbacks, 1u);
  sim.run_to_completion();
  EXPECT_EQ(seen, 99);
}

// ---------------------------------------------------------------------------
// Determinism: identical firing order across two runs with interleaved
// cancels driven by a seeded RNG.
// ---------------------------------------------------------------------------

std::vector<std::pair<SimTime, int>> run_cancel_storm(std::uint64_t seed) {
  Simulator sim(seed);
  Rng rng = sim.make_rng("storm");
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<EventHandle> handles;
  int id = 0;
  std::function<void()> churn = [&] {
    // Each tick: schedule a few events across all layers, cancel a few
    // random outstanding ones.
    for (int k = 0; k < 4; ++k) {
      const SimTime when =
          sim.now() + static_cast<SimDuration>(rng.next_u64() % msec(20));
      const int my_id = id++;
      handles.push_back(
          sim.at(when, [&fired, &sim, my_id] {
            fired.emplace_back(sim.now(), my_id);
          }));
    }
    for (int k = 0; k < 2 && !handles.empty(); ++k) {
      const size_t victim = rng.next_u64() % handles.size();
      handles[victim].cancel();
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (sim.now() < msec(50)) sim.after(usec(37), churn);
  };
  sim.after(0, churn);
  sim.run_until(msec(80));
  return fired;
}

TEST(EventCore, DeterministicOrderAcrossRunsWithInterleavedCancels) {
  const auto run1 = run_cancel_storm(1234);
  const auto run2 = run_cancel_storm(1234);
  ASSERT_FALSE(run1.empty());
  EXPECT_EQ(run1, run2);
}

// ---------------------------------------------------------------------------
// Randomized differential test: the calendar queue against a trivially
// correct reference model (stable sort by (when, seq)).
// ---------------------------------------------------------------------------

TEST(EventCore, MatchesReferenceModelUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim(seed);
    Rng rng = sim.make_rng("fuzz");
    struct Ref {
      SimTime when;
      int id;
      bool cancelled = false;
    };
    std::vector<Ref> ref;
    std::vector<EventHandle> handles;
    std::vector<int> fired;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t op = rng.next_u64() % 100;
      if (op < 70 || ref.empty()) {
        // Mix of near (same µs), wheel (< 1ms) and far (up to 2s) times.
        const std::uint64_t r = rng.next_u64();
        SimDuration d;
        if (r % 3 == 0) {
          d = static_cast<SimDuration>(r % 1000);
        } else if (r % 3 == 1) {
          d = static_cast<SimDuration>(r % msec(1));
        } else {
          d = static_cast<SimDuration>(r % sec(2));
        }
        const int my_id = static_cast<int>(ref.size());
        ref.push_back(Ref{static_cast<SimTime>(d), my_id});
        handles.push_back(sim.at(d, [&fired, my_id] {
          fired.push_back(my_id);
        }));
      } else {
        const size_t victim = rng.next_u64() % ref.size();
        if (!ref[victim].cancelled) {
          ref[victim].cancelled = true;
          handles[static_cast<size_t>(ref[victim].id)].cancel();
        }
      }
    }
    sim.run_to_completion();
    // Reference: stable sort the live events by (when, insertion order).
    std::vector<Ref> expect_refs;
    for (const Ref& r : ref) {
      if (!r.cancelled) expect_refs.push_back(r);
    }
    std::stable_sort(expect_refs.begin(), expect_refs.end(),
                     [](const Ref& a, const Ref& b) { return a.when < b.when; });
    std::vector<int> expect;
    for (const Ref& r : expect_refs) expect.push_back(r.id);
    EXPECT_EQ(fired, expect) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Perf counters
// ---------------------------------------------------------------------------

TEST(EventCore, StatsCountersTrackScheduleCancelFireAndLayers) {
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  sim.at(0, [] {});                      // near (bucket 0)
  sim.at(usec(100), [] {});              // wheel
  EventHandle far = sim.at(sec(4), [] {});  // far heap
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.near_hits, 1u);
  EXPECT_EQ(stats.wheel_hits, 1u);
  EXPECT_EQ(stats.far_hits, 1u);
  EXPECT_EQ(stats.peak_live, 3u);
  far.cancel();
  EXPECT_EQ(stats.cancelled, 1u);
  sim.run_to_completion();
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(stats.boxed_callbacks, 0u);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations (this binary links es2_alloc_hook)
// ---------------------------------------------------------------------------

TEST(EventCore, SteadyStateScheduleCancelFireAllocatesNothing) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(1024);
  // One churn round exercises every layer: same-instant defers, wheel
  // inserts, far-heap inserts, cancels of each, fires of the rest.
  auto churn = [&] {
    for (int i = 0; i < 1000; ++i) {
      sim.after(static_cast<SimDuration>(i % 200) * usec(1) + 1, [] {});
      handles.push_back(sim.after(sec(2), [] {}));
    }
    for (EventHandle& h : handles) h.cancel();
    handles.clear();  // keeps capacity
    sim.run_for(msec(1));
  };

  // Warm up: grow the slab pool, heaps, wheel lists and handle vector.
  for (int round = 0; round < 4; ++round) churn();

  test::AllocationCounter counter;
  for (int round = 0; round < 8; ++round) churn();
  sim.run_to_completion();
  EXPECT_EQ(counter.delta(), 0)
      << "steady-state schedule/cancel/fire must not allocate";
  EXPECT_EQ(sim.queue().stats().boxed_callbacks, 0u);
  EXPECT_GT(sim.queue().stats().fired, 0u);
}

}  // namespace
}  // namespace es2
