// Contract tests for the zero-allocation event core: ordering across the
// calendar tiers (near tier / level-0 wheel / level-1 wheel / overflow
// heap), including the cascade of a level-1 epoch into an occupied
// level-0 bucket, the near tier's sorted run and side heap (bursts in
// every order, compaction, allocation-free cycling), generation-handle
// cancellation semantics, handle-outlives-queue safety, resident timers
// (re-armed records, in every tier and from their own callbacks),
// determinism under interleaved cancels, inline-callback storage, the
// zero-steady-state-allocation guarantee (this binary links
// es2_alloc_hook), and delay lines (exact firing order against a twin that
// schedules every entry, parked-entry accounting, payload ownership and
// allocation-free cycling).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/alloc_hook.h"
#include "base/rng.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/delay_line.h"
#include "sim/simulator.h"

namespace es2 {
namespace {

using detail::kInlineCallbackCapacity;

// The calendar's geometry, from the core's own constants: a level-0
// bucket, a level-1 epoch, the level-0 window and the level-1 horizon.
using Core = detail::EventCore;
constexpr SimTime kBucket = SimTime{1} << Core::kBucketShift;
constexpr SimTime kEpoch = kBucket << Core::kEpochShift;
constexpr SimTime kWindow0 = kBucket * Core::kWheelBuckets;
constexpr SimTime kHorizon = kEpoch * Core::kWheelBuckets;

/// A uniform draw from [0, n).
SimDuration draw_below(Rng& rng, SimTime n) {
  return static_cast<SimDuration>(
      rng.next_below(static_cast<std::uint64_t>(n)));
}

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
  // Times chosen to land in every tier: same-bucket (near), within the
  // level-0 window, within the level-1 horizon, and far beyond it.
  Simulator sim;
  std::vector<SimTime> fired;
  const std::vector<SimTime> times = {
      0,            1,           2,            kBucket - 1,
      kBucket,      kBucket + 904, 100000,     kWindow0 - 1,
      kWindow0,     kEpoch + 1,  2 * kWindow0, 50 * kWindow0,
      kHorizon - 1, kHorizon,    kHorizon + 1, 2 * kHorizon,
      usec(7),      123456789};
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
  const SimTime t = 2 * kHorizon;  // far beyond the wheel horizon
  for (int i = 0; i < 100; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  // Force the cursor to sweep through many buckets first.
  for (SimTime k = 0; k < t; k += 3 * kEpoch) sim.at(k, [] {});
  sim.run_to_completion();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventCore, LevelOneCascadeIntoOccupiedLevelZeroBucketKeepsOrder) {
  // B is filed into level 1 while the cursor sits on bucket 0. Once the
  // cursor has moved to bucket 1, A and C land in level 0, in the very
  // bucket that starts B's epoch. Reaching that bucket must cascade B
  // and drain the level-0 bucket in the same step; otherwise B fires
  // alone, ahead of the earlier A and of C, which shares B's instant
  // but was scheduled after it.
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  std::string order;
  sim.at(kEpoch + 10, [&] { order += 'B'; });
  EXPECT_EQ(stats.far_hits, 1u);  // past the level-0 horizon: level 1
  sim.at(kBucket, [&] { order += 'x'; });
  // Fire x alone: the cap stops the loop before it refills again.
  ASSERT_EQ(sim.run_until_capped(kBucket, 1), 1u);
  sim.at(kEpoch + 5, [&] { order += 'A'; });
  sim.at(kEpoch + 10, [&] { order += 'C'; });
  EXPECT_EQ(stats.wheel_hits, 3u);  // x, A, C: all in level 0
  EXPECT_EQ(stats.far_hits, 1u);
  sim.run_to_completion();
  EXPECT_EQ(order, "xABC");
  EXPECT_EQ(sim.now(), kEpoch + 10);
  EXPECT_EQ(stats.far_migrations, 1u);
}

TEST(EventCore, LoneEventsOnTierBoundariesFireOnTime) {
  // With nothing else queued, the refill must find an event that sits on
  // a tier boundary on its own, with no neighbour to step the cursor
  // there first. Each event is scheduled from inside a callback, where
  // the cursor stands on now's bucket, at an offset from now or from
  // now's level-1 epoch start.
  const std::vector<SimTime> starts = {
      0,      1,          kBucket - 1, kBucket,
      kEpoch, kEpoch - 1, kEpoch + 255 * kBucket, 7 * kEpoch + 77};
  const std::vector<SimTime> offsets = {
      kWindow0 - 1,  kWindow0,           kWindow0 + 1,
      kEpoch - 1,    kEpoch,             kEpoch + 1,
      255 * kEpoch,  kHorizon - kBucket, kHorizon - 1,
      kHorizon,      kHorizon + 1,       kHorizon + kBucket};
  for (const SimTime start : starts) {
    for (const bool from_epoch : {false, true}) {
      for (const SimTime offset : offsets) {
        Simulator sim;
        const SimTime base = from_epoch ? start / kEpoch * kEpoch : start;
        const SimTime when = std::max(start, base + offset);
        SimTime fired_at = -1;
        sim.at(start, [&] {
          sim.at(when, [&] { fired_at = sim.now(); });
        });
        sim.run_to_completion();
        EXPECT_EQ(fired_at, when) << "start " << start << " offset " << offset
                                  << (from_epoch ? " from epoch" : "");
      }
    }
  }
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
// The near tier: a sorted run plus a side heap
// ---------------------------------------------------------------------------

TEST(EventCore, NearTierBurstsFireInReferenceOrder) {
  // Several hundred keys in one level-0 bucket, filed in ascending (tail
  // appends), descending (the side heap) and random order (both), with
  // same-instant ties and interleaved cancels, three ways: straight into
  // the near tier from outside, into a later bucket that cascades into
  // the empty tier as one bulk, and from inside a callback standing on
  // its bucket. Ids follow filing order, so the reference order is
  // (when, id).
  constexpr int kKeys = 400;
  for (int order = 0; order < 3; ++order) {
    Simulator sim;
    Rng rng = Rng::stream(static_cast<std::uint64_t>(order), "near-burst");
    std::vector<std::pair<SimTime, int>> want;
    std::vector<EventHandle> handles;
    std::vector<int> fired;
    std::uint64_t cancels = 0;
    auto cancel = [&](int id) {
      handles[static_cast<std::size_t>(id)].cancel();
      want[static_cast<std::size_t>(id)].second = -1;
      ++cancels;
    };
    auto burst = [&](SimTime bucket_start) {
      SimTime offset = 1;
      for (int i = 0; i < kKeys; ++i) {
        if (i % 4 != 3) {  // every fourth key ties with the one before
          const SimTime rank = order == 1 ? kKeys - i : i;
          offset = order == 2 ? 1 + draw_below(rng, kBucket - 1)
                              : 1 + rank * (kBucket / (2 * kKeys));
        }
        const int id = static_cast<int>(handles.size());
        const SimTime when = bucket_start + offset;
        handles.push_back(sim.at(when, [&fired, id] { fired.push_back(id); }));
        want.emplace_back(when, id);
        // The key just filed (taken back at once), or an earlier one
        // (left stale inside the run or the side heap).
        if (i % 7 == 3) cancel(id);
        if (i % 5 == 4 && want[static_cast<std::size_t>(id - 3)].second >= 0) {
          cancel(id - 3);
        }
      }
    };
    burst(0);             // the cursor stands on bucket 0
    burst(5 * kBucket);   // level 0, then one bulk cascade
    sim.at(9 * kBucket, [&] { burst(9 * kBucket); });
    sim.run_to_completion();
    std::vector<std::pair<SimTime, int>> live;
    for (const auto& [when, id] : want) {
      if (id >= 0) live.emplace_back(when, id);
    }
    std::sort(live.begin(), live.end());
    std::vector<int> expect;
    for (const auto& key : live) expect.push_back(key.second);
    EXPECT_EQ(fired, expect) << "order " << order;
    EXPECT_EQ(sim.queue().stats().cancelled, cancels) << "order " << order;
    EXPECT_EQ(sim.queue().size(), 0u);
  }
}

TEST(EventCore, NearTierCancelStormCompactsRunAndSideHeapExactly) {
  // Each round stands on a fresh bucket and files 200 ascending keys (the
  // run) and 200 descending keys, all earlier than the run (the side
  // heap), then one sentinel at the end of each: the run's tail, and a
  // side key later than every other side key, which stays the heap's
  // last leaf. Neither sentinel is cancelled, so no cancel below takes a
  // key back: each leaves a stale key. Of the 402 keys the 202nd cancel
  // is the first with more than half stale, so the one compaction must
  // come exactly there; a stale count left over from an earlier round
  // (or wrapped below zero) moves it. After the pass, cancels at both
  // heads are skimmed as they surface (Debug builds check the count
  // never underflows) and the rest fire in order.
  constexpr int kPerSide = 200;
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  std::vector<SimTime> fired;
  auto record = [&fired, &sim] { fired.push_back(sim.now()); };
  for (int round = 0; round < 4; ++round) {
    const SimTime start = (4 * round + 1) * kBucket;
    sim.at(start, [&, start] {
      std::vector<EventHandle> run;
      std::vector<EventHandle> side;
      for (int i = 0; i < kPerSide; ++i) {
        run.push_back(sim.at(start + 1000 + i, record));
      }
      for (int i = 0; i < kPerSide; ++i) {
        side.push_back(sim.at(start + 998 - i, record));
      }
      sim.at(start + 5000, record);  // the run's tail
      sim.at(start + 999, record);   // the side heap's last leaf
      const std::uint64_t before = stats.heap_compactions;
      for (int c = 0; c < 202; ++c) {
        EXPECT_EQ(stats.heap_compactions, before) << "cancel " << c;
        (c % 2 == 0 ? run : side)[static_cast<std::size_t>(c / 2)].cancel();
      }
      EXPECT_EQ(stats.heap_compactions, before + 1) << "round " << round;
      // 200 live keys: 99 on each side plus the sentinels. Cancel the 30
      // earliest of each side: too few to compact again.
      for (int i = 0; i < 30; ++i) {
        run[static_cast<std::size_t>(101 + i)].cancel();
        side[static_cast<std::size_t>(kPerSide - 1 - i)].cancel();
      }
      EXPECT_EQ(stats.heap_compactions, before + 1) << "round " << round;
    });
  }
  sim.run_to_completion();
  std::vector<SimTime> expect;
  for (int round = 0; round < 4; ++round) {
    const SimTime start = (4 * round + 1) * kBucket;
    for (int i = 101; i < kPerSide - 30; ++i) expect.push_back(start + 998 - i);
    std::sort(expect.end() - (kPerSide - 30 - 101), expect.end());
    expect.push_back(start + 999);
    for (int i = 131; i < kPerSide; ++i) expect.push_back(start + 1000 + i);
    expect.push_back(start + 5000);
  }
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(stats.heap_compactions, 4u);
  EXPECT_EQ(sim.queue().size(), 0u);
}

TEST(EventCore, WarmNearTierCyclingAllocatesNothing) {
  // 100 chains each file their next key 100 ns out, so every fire pops
  // the run's head and appends at its tail; one fire in seven also files
  // a one-shot 1 ns out, ahead of the whole run (the side heap), and one
  // in eleven files two keys and cancels the first (a stale key). A
  // level-0 bucket holds ~650 steps of each chain, so the run's consumed
  // prefix grows by a key per fire: it must be dropped, not grown into.
  // The chains then cross buckets, each refilled as one bulk.
  struct Step {
    Simulator* sim;
    std::uint64_t* fires;
    void operator()() const {
      const std::uint64_t n = ++*fires;
      sim->after(100, *this);
      if (n % 7 == 0) sim->after(1, [f = fires] { ++*f; });
      if (n % 11 == 0) {
        EventHandle early = sim->after(50, [] {});
        sim->after(60, [] {});
        early.cancel();
      }
    }
  };
  Simulator sim;
  std::uint64_t fires = 0;
  for (int i = 0; i < 100; ++i) sim.at(1 + i, Step{&sim, &fires});
  sim.run_until(kBucket / 8);  // warm: the buffer reaches its working size
  const std::uint64_t slabs = sim.queue().stats().slabs_allocated;
  const std::uint64_t warm_fires = fires;
  test::AllocationCounter counter;
  sim.run_until(4 * kBucket);
  EXPECT_EQ(counter.delta(), 0) << "a warm near tier must not allocate";
  EXPECT_EQ(sim.queue().stats().slabs_allocated, slabs);
  EXPECT_GT(fires - warm_fires, 200000u);
  EXPECT_GT(sim.queue().stats().cancelled, 15000u);
}

// ---------------------------------------------------------------------------
// Cancellation semantics
// ---------------------------------------------------------------------------

TEST(EventCore, CancelThenFireAndDoubleCancelAreSafe) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.at(usec(1), [&] { ++fired; });
  EventHandle b = sim.at(usec(1), [&] { ++fired; });
  EventHandle far = sim.at(2 * kHorizon, [&] { ++fired; });
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
      near_events.push_back(sim.after(1, [] {}));  // near tier
      far_events.push_back(
          sim.after(kHorizon + kEpoch, [] {}));  // far overflow heap
    }
    for (EventHandle& h : near_events) h.cancel();
    // kHorizon + kEpoch lies past the level-1 horizon, so these keys sit
    // in the far heap and cancelling them all must compact it.
    const std::uint64_t compactions = stats.heap_compactions;
    for (EventHandle& h : far_events) h.cancel();
    EXPECT_GT(stats.heap_compactions, compactions) << "round " << round;
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
  EventHandle copied;
  EventHandle moved;
  EventHandle self_assigned;
  std::vector<EventHandle> kept;
  {
    Simulator sim;
    survivor = sim.at(sec(1), [] {});
    EXPECT_TRUE(survivor.pending());
    copied = survivor;
    EventHandle source = sim.at(sec(2), [] {});
    moved = std::move(source);
    self_assigned = sim.at(sec(3), [] {});
    EventHandle& alias = self_assigned;
    self_assigned = alias;
    EXPECT_TRUE(self_assigned.pending());
    self_assigned = std::move(alias);
    EXPECT_TRUE(self_assigned.pending());
    for (int i = 0; i < 100; ++i) {
      kept.push_back(sim.at(usec(static_cast<SimTime>(i % 7)), [] {}));
    }
    sim.run_for(usec(3));  // some kept handles fire, the rest stay pending
    EXPECT_TRUE(copied.pending());
    EXPECT_TRUE(moved.pending());
  }
  // The queue is gone; the pooled core lives on through the handles.
  for (EventHandle* h : {&survivor, &copied, &moved, &self_assigned}) {
    EXPECT_FALSE(h->pending());
    h->cancel();  // must be safe, not a use-after-free
  }
  for (EventHandle& h : kept) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
  // Dropping the handles one by one releases the core with the last.
  survivor = EventHandle();
  copied = EventHandle();
  kept.erase(kept.begin(), kept.begin() + 50);
  moved.cancel();
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
// Resident timers
// ---------------------------------------------------------------------------

/// An owner with one resident timer that counts its fires.
struct Ticker {
  explicit Ticker(EventQueue& q) : timer(q.resident<&Ticker::tick>(this)) {}
  void tick() { ++fires; }
  int fires = 0;
  ResidentTimer timer;
};

TEST(EventCore, ResidentTimerCountsLikeScheduledEvents) {
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  Ticker t(sim.queue());
  EXPECT_FALSE(t.timer.pending());
  t.timer.cancel();  // idle: no-op, not counted
  t.timer.arm(kBucket + usec(5));  // level 0
  EXPECT_TRUE(t.timer.pending());
  EXPECT_EQ(sim.queue().size(), 1u);
  EXPECT_EQ(stats.scheduled, 1u);
  EXPECT_EQ(stats.wheel_hits, 1u);
  t.timer.cancel();
  EXPECT_FALSE(t.timer.pending());
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(sim.queue().size(), 0u);
  t.timer.arm(3 * kWindow0);  // level 1: counts as far
  EXPECT_EQ(stats.far_hits, 1u);
  sim.run_to_completion();
  EXPECT_EQ(t.fires, 1);
  EXPECT_FALSE(t.timer.pending());
  EXPECT_EQ(stats.fired, 1u);
  EXPECT_EQ(stats.peak_live, 1u);
  EXPECT_EQ(sim.now(), 3 * kWindow0);
}

TEST(EventCore, ResidentTimerTakesSeqOrderAtEachArm) {
  // An arm takes the next sequence number, exactly like a schedule at
  // that point: a re-armed timer fires after same-instant events
  // scheduled between its first arm and the re-arm.
  Simulator sim;
  std::string order;
  struct Mark {
    explicit Mark(Simulator& s, std::string& o)
        : out(o), timer(s.queue().resident<&Mark::fire>(this)) {}
    void fire() { out += 'R'; }
    std::string& out;
    ResidentTimer timer;
  } mark(sim, order);
  mark.timer.arm(usec(1));
  sim.at(usec(1), [&] { order += 'a'; });
  mark.timer.cancel();
  mark.timer.arm(usec(1));
  sim.at(usec(1), [&] { order += 'b'; });
  sim.run_to_completion();
  EXPECT_EQ(order, "aRb");
}

TEST(EventCore, ResidentTimerRearmsFromItsOwnCallback) {
  Simulator sim;
  struct Self {
    explicit Self(Simulator& s)
        : sim(s), timer(s.queue().resident<&Self::fire>(this)) {}
    void fire() {
      times.push_back(sim.now());
      EXPECT_FALSE(timer.pending());
      timer.cancel();  // inside its own fire: a no-op
      if (times.size() < 4) timer.arm(sim.now() + msec(100));
    }
    Simulator& sim;
    std::vector<SimTime> times;
    ResidentTimer timer;
  } self(sim);
  self.timer.arm(usec(3));
  sim.run_to_completion();
  EXPECT_EQ(self.times, (std::vector<SimTime>{usec(3), usec(3) + msec(100),
                                              usec(3) + msec(200),
                                              usec(3) + msec(300)}));
  EXPECT_EQ(sim.queue().stats().cancelled, 0u);
  EXPECT_EQ(sim.queue().stats().slabs_allocated, 1u);
}

TEST(EventCore, ResidentTimerArmChecks) {
  Simulator sim;
  Ticker t(sim.queue());
  sim.run_until(usec(10));
  EXPECT_DEATH(t.timer.arm(usec(9)), "cannot schedule into the past");
  t.timer.arm(usec(20));
  EXPECT_DEATH(t.timer.arm(usec(30)), "armed while pending");
}

TEST(EventCore, ResidentTimerRearmAfterNearCancelFiresOnce) {
  // A cancel of a near-tier resident arm leaves a stale key; the re-arm
  // files a fresh key for the same record. Cancel-and-re-arm enough
  // timers that the near tier compacts: the stale count must stay exact
  // (skim() and compaction check it) and each timer fire exactly once.
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < 200; ++i) {
    tickers.push_back(std::make_unique<Ticker>(sim.queue()));
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& t : tickers) t->timer.arm(sim.now() + 7);  // near tier
    for (auto& t : tickers) t->timer.cancel();
    for (auto& t : tickers) t->timer.arm(sim.now() + 9);
    sim.run_for(usec(1));
  }
  EXPECT_GT(stats.heap_compactions, 0u)
      << "not enough stale keys to compact; raise the timer count";
  for (const auto& t : tickers) EXPECT_EQ(t->fires, 3);
  EXPECT_EQ(stats.fired, 600u);
  EXPECT_EQ(stats.cancelled, 600u);
  EXPECT_EQ(sim.queue().size(), 0u);
  EXPECT_EQ(sim.run_to_completion(), 0u);
}

TEST(EventCore, ResidentTimerOutlivesQueue) {
  std::unique_ptr<Ticker> armed;
  std::unique_ptr<Ticker> idle;
  std::unique_ptr<Ticker> fired;
  {
    EventQueue q;
    armed = std::make_unique<Ticker>(q);
    idle = std::make_unique<Ticker>(q);
    fired = std::make_unique<Ticker>(q);
    armed->timer.arm(sec(5));
    fired->timer.arm(1);
    SimTime now = 0;
    EXPECT_EQ(q.run_until(10, 100, now), 1u);
    EXPECT_TRUE(armed->timer.pending());
  }
  // The queue is gone; the core lives on through the timers.
  for (Ticker* t : {armed.get(), idle.get(), fired.get()}) {
    EXPECT_FALSE(t->timer.pending());
    t->timer.cancel();  // must be safe, not a use-after-free
    t->timer.arm(sec(1));  // a no-op
    EXPECT_FALSE(t->timer.pending());
  }
  EXPECT_EQ(fired->fires, 1);
  // Destroying them one by one releases the core with the last.
  armed.reset();
  idle.reset();
  fired.reset();
}

TEST(EventCore, DestroyedResidentTimerUnfilesAndFreesItsSlot) {
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  for (int i = 0; i < 1000; ++i) {
    Ticker t(sim.queue());
    t.timer.arm(sec(1) + i);  // dies pending: unfiled and counted
  }
  EXPECT_EQ(sim.queue().size(), 0u);
  EXPECT_EQ(stats.cancelled, 1000u);
  EXPECT_EQ(stats.slabs_allocated, 1u);
  EXPECT_EQ(sim.run_to_completion(), 0u);
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
// Every stored callable is destroyed exactly once: after a normal fire, a
// throwing fire, a cancel and queue teardown, inline and boxed alike.
// ---------------------------------------------------------------------------

/// Counts destructions of the live (not moved-from) instance.
struct DestroyCounter {
  int* destroyed;
  bool* throws;
  DestroyCounter(int* d, bool* t) : destroyed(d), throws(t) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)),
        throws(other.throws) {}
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() {
    EXPECT_EQ(*destroyed, 0) << "callable destroyed before it ran";
    if (*throws) throw std::runtime_error("boom");
  }
};

/// The same callable padded past the inline buffer, so it is boxed.
struct BoxedDestroyCounter {
  DestroyCounter counter;
  std::array<std::int64_t, 16> pad{};
  void operator()() { counter(); }
};
static_assert(sizeof(BoxedDestroyCounter) > kInlineCallbackCapacity);

enum class Ending { kFire, kThrow, kCancel, kTeardown };

int destructions(Ending ending, bool boxed) {
  int destroyed = 0;
  bool throws = ending == Ending::kThrow;
  {
    Simulator sim;
    EventHandle h =
        boxed ? sim.queue().schedule(
                    usec(1), BoxedDestroyCounter{{&destroyed, &throws}, {}})
              : sim.at(usec(1), DestroyCounter(&destroyed, &throws));
    EXPECT_EQ(sim.queue().stats().boxed_callbacks, boxed ? 1u : 0u);
    EXPECT_EQ(destroyed, 0);
    switch (ending) {
      case Ending::kFire:
        sim.run_to_completion();
        break;
      case Ending::kThrow:
        EXPECT_THROW(sim.run_to_completion(), std::runtime_error);
        break;
      case Ending::kCancel:
        h.cancel();
        h.cancel();
        break;
      case Ending::kTeardown:
        break;
    }
    if (ending != Ending::kTeardown) {
      // The slot is back on the free list and the core keeps working.
      EXPECT_EQ(sim.queue().size(), 0u);
      int fired = 0;
      sim.after(usec(2), [&fired] { ++fired; });
      sim.run_to_completion();
      EXPECT_EQ(fired, 1);
      EXPECT_EQ(sim.queue().stats().slabs_allocated, 1u);
    }
  }  // kTeardown: the queue destroys the pending callable here
  return destroyed;
}

TEST(EventCore, InlineCallableIsDestroyedExactlyOnce) {
  for (Ending e :
       {Ending::kFire, Ending::kThrow, Ending::kCancel, Ending::kTeardown}) {
    EXPECT_EQ(destructions(e, /*boxed=*/false), 1)
        << "ending " << static_cast<int>(e);
  }
}

TEST(EventCore, BoxedCallableIsDestroyedExactlyOnce) {
  for (Ending e :
       {Ending::kFire, Ending::kThrow, Ending::kCancel, Ending::kTeardown}) {
    EXPECT_EQ(destructions(e, /*boxed=*/true), 1)
        << "ending " << static_cast<int>(e);
  }
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

/// A resident timer under fuzz: logs the id of its current arm when it
/// fires, then re-arms itself from its own callback, under the next id,
/// while fuzz_rearm_delay() gives it a delay.
struct FuzzResident {
  FuzzResident(Simulator& s, std::vector<int>& log, int& ids, int k)
      : sim(s),
        fired(log),
        next_id(ids),
        index(k),
        timer(s.queue().resident<&FuzzResident::fire>(this)) {}
  void arm(SimDuration d) {
    id = next_id++;
    timer.arm(sim.now() + d);
  }
  void fire();

  Simulator& sim;
  std::vector<int>& fired;
  int& next_id;
  int index;
  int id = -1;
  int fires = 0;
  ResidentTimer timer;
};

/// A near, level-0 or far delay drawn from `r`.
SimDuration fuzz_delay(std::uint64_t r) {
  const auto below = [r](SimTime n) {
    return static_cast<SimDuration>(r % static_cast<std::uint64_t>(n));
  };
  if (r % 3 == 0) return below(kBucket / 4);
  if (r % 3 == 1) return below(kWindow0);
  return below(2 * kHorizon);
}

/// Resident timer `k`'s self re-arm delay after its `fires`-th fire, or
/// -1 once it has re-armed itself three times.
SimDuration fuzz_rearm_delay(int k, int fires) {
  if (fires > 3) return -1;
  return fuzz_delay(Rng::stream(static_cast<std::uint64_t>(k * 16 + fires),
                                "rearm").next_u64());
}

void FuzzResident::fire() {
  fired.push_back(id);
  const SimDuration d = fuzz_rearm_delay(index, ++fires);
  if (d >= 0) arm(d);
}

TEST(EventCore, MatchesReferenceModelUnderRandomOps) {
  // Random schedules and cancels of plain events, and arms, cancels and
  // re-arms of resident timers, all across near / wheel / far times; the
  // residents also re-arm from their own callbacks. The reference keeps
  // (when, seq) keys in a map and replays the same self re-arms.
  constexpr int kResidents = 6;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim(seed);
    Rng rng = sim.make_rng("fuzz");
    using Key = std::pair<SimTime, std::uint64_t>;  // (when, seq)
    std::map<Key, int> ref;                         // pending: key -> id
    std::vector<Key> key_of;                        // id -> key
    std::vector<int> resident_of;                   // id -> timer, or -1
    std::vector<int> ref_resident_id(kResidents, -1);  // pending id or -1
    std::vector<EventHandle> handles;               // id -> plain handle
    std::vector<int> fired;
    int next_id = 0;
    std::vector<std::unique_ptr<FuzzResident>> residents;
    for (int k = 0; k < kResidents; ++k) {
      residents.push_back(
          std::make_unique<FuzzResident>(sim, fired, next_id, k));
    }
    auto file_ref = [&](SimTime when, int k) {
      const int id = static_cast<int>(key_of.size());
      key_of.emplace_back(when, key_of.size());
      ref.emplace(key_of.back(), id);
      resident_of.push_back(k);
      handles.emplace_back();
      if (k >= 0) ref_resident_id[static_cast<std::size_t>(k)] = id;
      return id;
    };
    auto cancel_resident = [&](int k) {
      int& id = ref_resident_id[static_cast<std::size_t>(k)];
      if (id >= 0) ref.erase(key_of[static_cast<std::size_t>(id)]);
      id = -1;
      residents[static_cast<std::size_t>(k)]->timer.cancel();
    };
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t op = rng.next_u64() % 100;
      if (op < 60 || key_of.empty()) {
        const SimDuration d = fuzz_delay(rng.next_u64());
        const int id = file_ref(d, -1);
        ++next_id;
        handles[static_cast<std::size_t>(id)] =
            sim.at(d, [&fired, id] { fired.push_back(id); });
      } else if (op < 85) {
        const size_t victim = rng.next_u64() % key_of.size();
        if (resident_of[victim] < 0) {
          ref.erase(key_of[victim]);
          handles[victim].cancel();
        }
      } else {
        // A resident timer: arm it when idle; when pending, cancel it,
        // or cancel and re-arm it.
        const int k = static_cast<int>(rng.next_below(kResidents));
        FuzzResident& r = *residents[static_cast<std::size_t>(k)];
        const bool rearm = rng.next_below(2) == 0;
        if (r.timer.pending()) {
          cancel_resident(k);
          if (!rearm) continue;
        }
        const SimDuration d = fuzz_delay(rng.next_u64());
        file_ref(d, k);
        r.arm(d);
      }
    }
    sim.run_to_completion();
    // Reference: fire in (when, seq) order, replaying the self re-arms.
    std::vector<int> expect;
    std::vector<int> ref_fires(kResidents, 0);
    while (!ref.empty()) {
      const auto [key, id] = *ref.begin();
      ref.erase(ref.begin());
      expect.push_back(id);
      const int k = resident_of[static_cast<std::size_t>(id)];
      if (k < 0) continue;
      const SimDuration d =
          fuzz_rearm_delay(k, ++ref_fires[static_cast<std::size_t>(k)]);
      if (d >= 0) file_ref(key.first + d, k);
    }
    EXPECT_EQ(fired, expect) << "seed " << seed;
    EXPECT_EQ(next_id, static_cast<int>(key_of.size())) << "seed " << seed;
    EXPECT_GT(sim.queue().stats().cancelled, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Randomized differential test of the dispatch loop: run_until,
// run_until_capped and run_for slices whose callbacks schedule and cancel
// re-entrantly, against an ordered (when, seq) reference model.
// ---------------------------------------------------------------------------

/// What both worlds record and share: ids are handed out in scheduling
/// order, so the two agree on every id as long as they agree on order.
struct SliceWorld {
  std::vector<std::pair<int, SimTime>> fired;  // (id, now() inside it)
  std::vector<int> cancel_on_fire;             // id -> id it cancels, or -1
  std::vector<int> resident_of;  // id -> resident timer it armed, or -1
  bool all_tiers = false;  // draw follow-up delays with tier_delay()
  int residents = 0;       // resident timers in play (0: none)
};

constexpr int kSliceMaxIds = 3000;

/// A delay from one calendar tier, or from one of the tier boundaries:
/// the current level-0 bucket, the level-0 window, the level-1 window,
/// past the level-1 horizon, an exact level-1 epoch start or one ns
/// either side, and the level-1 horizon plus or minus one level-0
/// bucket, from now and from now's epoch start.
SimDuration tier_delay(Rng& rng, SimTime now) {
  const SimTime bucket_step =
      kBucket * (static_cast<SimTime>(rng.next_below(3)) - 1);
  switch (rng.next_below(7)) {
    case 0: return draw_below(rng, kBucket - now % kBucket);
    case 1: return draw_below(rng, kWindow0);
    case 2: return kWindow0 + draw_below(rng, kHorizon - kWindow0);
    case 3: return kHorizon + draw_below(rng, kHorizon / 4);
    case 4: {
      const SimTime k =
          now / kEpoch + 1 + static_cast<SimTime>(rng.next_below(300));
      return k * kEpoch + static_cast<SimTime>(rng.next_below(3)) - 1 - now;
    }
    case 5: return kHorizon + bucket_step;
    default: return now / kEpoch * kEpoch + kHorizon + bucket_step - now;
  }
}

/// The follow-up work of event `id`, a pure function of (seed, id) and of
/// the world's own state: follow-ups at now, in the current bucket, in
/// the wheel window and far out; cancels of random earlier ids; and a
/// same-instant pair whose first event cancels the second, which is then
/// the very next key in the near tier.
/// Arms an idle resident timer; cancels a pending one, or cancels and
/// re-arms it.
template <typename World>
void resident_op(World& w, Rng& rng) {
  const int k = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(w.residents)));
  if (w.resident_pending(k)) {
    w.cancel_resident(k);
    if (rng.next_below(2) == 0) return;
  }
  w.arm_resident(k, tier_delay(rng, w.now()));
}

template <typename World>
void slice_act(World& w, std::uint64_t seed, int id) {
  const int victim = w.cancel_on_fire[static_cast<std::size_t>(id)];
  if (victim >= 0) w.cancel(victim);
  if (w.next_id() >= kSliceMaxIds) return;
  Rng rng(seed * 1000003u + static_cast<std::uint64_t>(id));
  const std::uint64_t follow_ups = rng.next_below(3);
  for (std::uint64_t k = 0; k < follow_ups; ++k) {
    if (w.all_tiers) {
      w.schedule(tier_delay(rng, w.now()));
      continue;
    }
    SimDuration d = 0;
    switch (rng.next_below(4)) {
      case 0: d = 0; break;
      case 1: d = draw_below(rng, kBucket); break;
      case 2: d = draw_below(rng, kWindow0); break;
      default: d = draw_below(rng, 40 * kWindow0); break;
    }
    w.schedule(d);
  }
  if (rng.next_below(4) == 0) {
    w.cancel(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(w.next_id()))));
  }
  if (rng.next_below(5) == 0) {
    const int first = w.schedule(0);
    const int second = w.schedule(0);
    w.cancel_on_fire[static_cast<std::size_t>(first)] = second;
  }
  if (w.residents == 0) return;
  // A firing resident timer often re-arms itself from its own callback;
  // any event may also arm, cancel or cancel and re-arm any timer.
  const int own = w.resident_of[static_cast<std::size_t>(id)];
  if (own >= 0 && rng.next_below(2) == 0) {
    w.arm_resident(own, tier_delay(rng, w.now()));
  }
  if (rng.next_below(3) == 0) resident_op(w, rng);
}

struct RealSliceWorld : SliceWorld {
  /// A resident timer that fires as the id of its latest arm.
  struct Resident {
    explicit Resident(RealSliceWorld& world)
        : w(world), timer(world.sim.queue().resident<&Resident::fire>(this)) {}
    void fire() {
      w.fired.emplace_back(id, w.sim.now());
      slice_act(w, w.seed, id);
    }
    RealSliceWorld& w;
    int id = -1;
    ResidentTimer timer;
  };

  Simulator sim;
  std::uint64_t seed;
  std::vector<EventHandle> handles;  // id -> handle (empty for residents)
  std::vector<std::unique_ptr<Resident>> timers;
  RealSliceWorld(std::uint64_t s, int resident_count = 0) : sim(s), seed(s) {
    residents = resident_count;
    for (int k = 0; k < residents; ++k) {
      timers.push_back(std::make_unique<Resident>(*this));
    }
  }
  int next_id() const { return static_cast<int>(handles.size()); }
  SimTime now() const { return sim.now(); }
  int new_id(int resident) {
    cancel_on_fire.push_back(-1);
    resident_of.push_back(resident);
    handles.emplace_back();
    return next_id() - 1;
  }
  int schedule(SimDuration d) {
    const int id = new_id(-1);
    handles.back() = sim.after(d, [this, id] {
      fired.emplace_back(id, sim.now());
      slice_act(*this, seed, id);
    });
    return id;
  }
  void cancel(int id) {
    const int k = resident_of[static_cast<std::size_t>(id)];
    if (k < 0) {
      handles[static_cast<std::size_t>(id)].cancel();
    } else if (timers[static_cast<std::size_t>(k)]->id == id) {
      cancel_resident(k);
    }
  }
  void arm_resident(int k, SimDuration d) {
    Resident& r = *timers[static_cast<std::size_t>(k)];
    r.id = new_id(k);
    r.timer.arm(sim.now() + d);
  }
  bool resident_pending(int k) const {
    return timers[static_cast<std::size_t>(k)]->timer.pending();
  }
  void cancel_resident(int k) {
    timers[static_cast<std::size_t>(k)]->timer.cancel();
  }
};

struct RefSliceWorld : SliceWorld {
  using Key = std::pair<SimTime, std::uint64_t>;  // (when, seq)
  std::uint64_t seed;
  SimTime clock = 0;
  std::uint64_t next_seq = 0;
  std::map<Key, int> pending;
  std::vector<Key> key_of;         // id -> its key (valid while pending)
  std::vector<int> resident_id;    // timer -> its pending id, or -1
  RefSliceWorld(std::uint64_t s, int resident_count = 0)
      : seed(s), resident_id(static_cast<std::size_t>(resident_count), -1) {
    residents = resident_count;
  }
  int next_id() const { return static_cast<int>(key_of.size()); }
  SimTime now() const { return clock; }
  int schedule(SimDuration d, int resident = -1) {
    const int id = next_id();
    cancel_on_fire.push_back(-1);
    resident_of.push_back(resident);
    key_of.push_back(Key{clock + d, next_seq++});
    pending.emplace(key_of.back(), id);
    return id;
  }
  void cancel(int id) {
    const int k = resident_of[static_cast<std::size_t>(id)];
    if (k >= 0 && resident_id[static_cast<std::size_t>(k)] == id) {
      resident_id[static_cast<std::size_t>(k)] = -1;
    }
    pending.erase(key_of[static_cast<std::size_t>(id)]);
  }
  void arm_resident(int k, SimDuration d) {
    resident_id[static_cast<std::size_t>(k)] = schedule(d, k);
  }
  bool resident_pending(int k) const {
    return resident_id[static_cast<std::size_t>(k)] >= 0;
  }
  void cancel_resident(int k) {
    const int id = resident_id[static_cast<std::size_t>(k)];
    if (id >= 0) cancel(id);
  }
  /// Fires in (when, seq) order up to `deadline`, at most `cap` events.
  std::uint64_t run(SimTime deadline, std::uint64_t cap) {
    std::uint64_t n = 0;
    while (n < cap && !pending.empty() &&
           pending.begin()->first.first <= deadline) {
      const auto [key, id] = *pending.begin();
      pending.erase(pending.begin());
      clock = key.first;
      // A firing resident timer is idle again inside its own callback.
      const int k = resident_of[static_cast<std::size_t>(id)];
      if (k >= 0) resident_id[static_cast<std::size_t>(k)] = -1;
      fired.emplace_back(id, clock);
      slice_act(*this, seed, id);
      ++n;
    }
    if (n < cap && clock < deadline) clock = deadline;
    return n;
  }
};

/// Runs both worlds through one randomly chosen run_until /
/// run_until_capped / run_for slice of `span` and checks that they fire
/// as many events and agree on the clock and the pending count. Returns
/// true when a capped call stopped at its cap.
bool run_one_slice(RealSliceWorld& real, RefSliceWorld& ref, Rng& rng,
                   SimDuration span) {
  constexpr std::uint64_t kUncapped = ~std::uint64_t{0};
  const SimTime deadline = real.sim.now() + span;
  std::uint64_t got = 0;
  std::uint64_t want = 0;
  bool capped = false;
  switch (rng.next_below(3)) {
    case 0:
      got = real.sim.run_until(deadline);
      want = ref.run(deadline, kUncapped);
      break;
    case 1: {
      const std::uint64_t cap = 1 + rng.next_below(8);
      got = real.sim.run_until_capped(deadline, cap);
      want = ref.run(deadline, cap);
      capped = want == cap;
      break;
    }
    default:
      got = real.sim.run_for(span);
      want = ref.run(deadline, kUncapped);
      break;
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(real.sim.now(), ref.now());
  EXPECT_EQ(real.sim.queue().size(), ref.pending.size());
  return capped;
}

TEST(EventCore, RunSlicesMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RealSliceWorld real(seed);
    RefSliceWorld ref(seed);
    Rng rng = Rng::stream(seed, "slices");
    for (int i = 0; i < 64; ++i) {
      const SimDuration d = draw_below(rng, 5 * kWindow0);
      real.schedule(d);
      ref.schedule(d);
    }
    int calls = 0;
    std::uint64_t capped_calls = 0;
    while (!ref.pending.empty()) {
      ++calls;
      // Spans from zero (same-instant slices) to past the wheel window.
      const SimDuration span =
          rng.next_below(4) == 0 ? 0 : draw_below(rng, 3 * kWindow0);
      if (run_one_slice(real, ref, rng, span)) ++capped_calls;
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " call " << calls;
    }
    EXPECT_EQ(real.sim.run_to_completion(), 0u);
    EXPECT_EQ(real.fired, ref.fired) << "seed " << seed;
    EXPECT_EQ(real.sim.events_executed(), ref.fired.size());
    // The workload must reach every path it is meant to cover.
    EXPECT_GE(ref.next_id(), kSliceMaxIds) << "seed " << seed;
    EXPECT_GT(capped_calls, 0u) << "seed " << seed;
    EXPECT_GT(real.sim.queue().stats().far_hits, 0u) << "seed " << seed;
    EXPECT_GT(real.sim.queue().stats().cancelled, 0u) << "seed " << seed;
  }
}

TEST(EventCore, TwoLevelWheelMatchesReferenceModel) {
  // Every tier and tier boundary, on both sides of the dispatch loop:
  // between slices the test schedules tier_delay()s, cancels random
  // pending ids (so cancels hit every tier) and arms, cancels or re-arms
  // a resident timer; every fired event's follow-ups draw tier_delay()s
  // too, and resident timers also re-arm from their own callbacks.
  // Slices run from zero to past the level-1 horizon, so the cursor
  // crosses many level-1 epochs, cascading some of them into an occupied
  // level-0 bucket, and jumps onto far-heap tops.
  constexpr int kResidents = 8;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RealSliceWorld real(seed, kResidents);
    RefSliceWorld ref(seed, kResidents);
    real.all_tiers = ref.all_tiers = true;
    Rng rng = Rng::stream(seed, "two-level");
    auto outside = [&] {
      for (int k = 0; k < 3 && ref.next_id() < kSliceMaxIds; ++k) {
        const SimDuration d = tier_delay(rng, ref.now());
        real.schedule(d);
        ref.schedule(d);
      }
      if (rng.next_below(2) == 0) {
        const int victim = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(ref.next_id())));
        real.cancel(victim);
        ref.cancel(victim);
      }
      if (ref.next_id() < kSliceMaxIds) {
        Rng resident_rng = rng;  // both worlds draw the same op
        resident_op(real, resident_rng);
        resident_op(ref, rng);
      }
    };
    for (int i = 0; i < 32; ++i) outside();
    int calls = 0;
    while (!ref.pending.empty()) {
      ++calls;
      outside();
      SimDuration span = 0;
      switch (rng.next_below(5)) {
        case 0: break;
        case 1: span = draw_below(rng, kBucket); break;
        case 2: span = draw_below(rng, kWindow0); break;
        case 3: span = draw_below(rng, 20 * kEpoch); break;
        default: span = draw_below(rng, kHorizon + kHorizon / 8); break;
      }
      run_one_slice(real, ref, rng, span);
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " call " << calls;
    }
    EXPECT_EQ(real.sim.run_to_completion(), 0u);
    EXPECT_EQ(real.fired, ref.fired) << "seed " << seed;
    EXPECT_GE(ref.next_id(), kSliceMaxIds) << "seed " << seed;
    const EventQueueStats& stats = real.sim.queue().stats();
    EXPECT_GT(stats.far_hits, 0u) << "seed " << seed;
    EXPECT_GT(stats.far_migrations, 0u) << "seed " << seed;
    EXPECT_GT(stats.cancelled, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Perf counters
// ---------------------------------------------------------------------------

TEST(EventCore, StatsCountersTrackScheduleCancelFireAndLayers) {
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  sim.at(0, [] {});                 // near (bucket 0)
  sim.at(2 * kBucket, [] {});       // level-0 wheel
  sim.at(50 * kEpoch, [] {});       // level-1 wheel: counts as far
  sim.at(kHorizon + 10 * kEpoch, [] {});  // far heap; level 1 once the
                                          // cursor reaches epoch 50
  EventHandle far = sim.at(4 * kHorizon, [] {});  // far heap
  EXPECT_EQ(stats.scheduled, 5u);
  EXPECT_EQ(stats.near_hits, 1u);
  EXPECT_EQ(stats.wheel_hits, 1u);
  EXPECT_EQ(stats.far_hits, 3u);
  EXPECT_EQ(stats.peak_live, 5u);
  far.cancel();
  EXPECT_EQ(stats.cancelled, 1u);
  sim.run_to_completion();
  EXPECT_EQ(stats.fired, 4u);
  // The level-1 and far timers each entered level 0 / near exactly once
  // (the far one by way of level 1); the cancelled far event never did.
  EXPECT_EQ(stats.far_migrations, 2u);
  EXPECT_EQ(stats.boxed_callbacks, 0u);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations (this binary links es2_alloc_hook)
// ---------------------------------------------------------------------------

TEST(EventCore, SteadyStateScheduleCancelFireAllocatesNothing) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(2048);
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < 64; ++i) {
    tickers.push_back(std::make_unique<Ticker>(sim.queue()));
  }
  // One churn round exercises every tier: same-instant defers, level-0
  // inserts, level-1 and far-heap inserts, cancels of each, fires of the
  // rest; resident timers are armed, cancelled and re-armed in each tier
  // and fire from the near tier and level 0.
  auto churn = [&] {
    for (int i = 0; i < 1000; ++i) {
      sim.after(static_cast<SimDuration>(i % 200) * usec(1) + 1, [] {});
      handles.push_back(sim.after(3 * kWindow0, [] {}));
      handles.push_back(sim.after(2 * kHorizon, [] {}));
    }
    for (std::size_t i = 0; i < tickers.size(); ++i) {
      ResidentTimer& t = tickers[i]->timer;
      const SimDuration far = i % 2 == 0 ? 3 * kWindow0 : 2 * kHorizon;
      t.arm(sim.now() + far);
      t.cancel();
      t.arm(sim.now() + 1 + static_cast<SimDuration>(i) * usec(3));
    }
    for (EventHandle& h : handles) h.cancel();
    handles.clear();  // keeps capacity
    sim.run_for(msec(1));
  };

  // Warm up: grow the slab pool, heaps, wheel lists and handle vector.
  for (int round = 0; round < 4; ++round) churn();
  const std::uint64_t slabs = sim.queue().stats().slabs_allocated;

  test::AllocationCounter counter;
  for (int round = 0; round < 8; ++round) churn();
  sim.run_to_completion();
  EXPECT_EQ(counter.delta(), 0)
      << "steady-state schedule/cancel/fire must not allocate";
  EXPECT_EQ(sim.queue().stats().boxed_callbacks, 0u);
  EXPECT_EQ(sim.queue().stats().slabs_allocated, slabs);
  EXPECT_GT(sim.queue().stats().fired, 0u);
  for (const auto& t : tickers) EXPECT_EQ(t->fires, 12);
}

TEST(EventCore, ResidentChurnNeedsNoSecondSlab) {
  // Resident records are bound once: arming, cancelling and firing them
  // never takes another slot, so a handful of timers churning for
  // thousands of rounds stays inside the first slab.
  Simulator sim;
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < 64; ++i) {
    tickers.push_back(std::make_unique<Ticker>(sim.queue()));
  }
  for (int round = 0; round < 2000; ++round) {
    for (std::size_t i = 0; i < tickers.size(); ++i) {
      ResidentTimer& t = tickers[i]->timer;
      t.arm(sim.now() + usec(100) + static_cast<SimDuration>(i));
      if ((round + i) % 3 == 0) t.cancel();
    }
    sim.run_for(msec(1));
  }
  EXPECT_EQ(sim.queue().stats().slabs_allocated, 1u);
  EXPECT_GT(sim.queue().stats().fired, 80000u);
}

// ---------------------------------------------------------------------------
// Delay lines
// ---------------------------------------------------------------------------

/// One random program of events, run either with its constant-delay timers
/// on DelayLines or with every event scheduled through Simulator::at. Each
/// fire logs `(time, id, queue size)` and spawns follow-ups from the
/// program's own RNG, so both runs make the same draws and, if the lines
/// are exact, the same log.
class DelayProgram {
 public:
  struct Fire {
    SimTime when;
    int id;
    std::size_t queue_size;
    bool operator==(const Fire&) const = default;
  };

  DelayProgram(bool use_lines, std::uint64_t seed)
      : use_lines_(use_lines), rng_(Rng::stream(seed, "delay-line")) {
    for (const SimDuration d : kLineDelays) {
      lanes_.push_back(std::make_unique<Lane>(this, d));
    }
  }

  std::vector<Fire> run() {
    for (int i = 0; i < 64; ++i) spawn();
    sim_.run_to_completion();
    return log_;
  }

  const EventQueueStats& stats() { return sim_.queue().stats(); }
  std::uint64_t rearms_from_empty() const { return rearms_from_empty_; }
  std::uint64_t pushes_in_delivery() const { return pushes_in_delivery_; }

  // Two lanes share 2 ms, and `at` delays repeat the lane delays, so
  // same-instant ties mix lanes and plain events; the last two reach
  // past the level-1 horizon into the far heap.
  static constexpr std::array<SimDuration, 6> kLineDelays = {
      0, usec(3), msec(2), msec(2), kHorizon + kHorizon / 8, 4 * kHorizon};

 private:
  struct Lane {
    Lane(DelayProgram* p, SimDuration d)
        : program(p), delay(d), line(p->sim_, this) {}
    void deliver(int id) { program->fired(id, /*in_line=*/true); }
    DelayProgram* program;
    SimDuration delay;
    DelayLine<int, &Lane::deliver> line;
  };

  void fired(int id, bool in_line) {
    in_line_ = in_line;
    log_.push_back({sim_.now(), id, sim_.queue().size()});
    // Mostly one child, sometimes none or two: the population drifts, so
    // lanes drain empty and restart.
    const std::uint64_t roll = rng_.next_below(10);
    const int children = roll == 0 ? 0 : roll == 1 ? 2 : 1;
    for (int i = 0; i < children; ++i) spawn();
    in_line_ = false;
  }

  void spawn() {
    if (next_id_ >= kMaxIds) return;
    const int id = next_id_++;
    const std::uint64_t pick = rng_.next_below(lanes_.size() + 2);
    if (pick < lanes_.size()) {
      Lane& lane = *lanes_[pick];
      const SimTime when = sim_.now() + lane.delay;
      if (use_lines_) {
        if (lane.line.size() == 0) ++rearms_from_empty_;
        if (in_line_) ++pushes_in_delivery_;
        lane.line.push(when, id);
      } else {
        sim_.at(when, [this, id] { fired(id, false); });
      }
      return;
    }
    // A plain event: a lane's delay (a tie with its entries) or a random
    // one anywhere up to past the far horizon.
    const SimDuration d =
        pick == lanes_.size()
            ? kLineDelays[rng_.next_below(kLineDelays.size())]
            : draw_below(rng_, kHorizon + kHorizon / 2);
    sim_.at(sim_.now() + d, [this, id] { fired(id, false); });
  }

  static constexpr int kMaxIds = 20000;
  bool use_lines_;
  Rng rng_;
  Simulator sim_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<Fire> log_;
  int next_id_ = 0;
  bool in_line_ = false;
  std::uint64_t rearms_from_empty_ = 0;
  std::uint64_t pushes_in_delivery_ = 0;
};

TEST(DelayLine, FiresExactlyLikeOneScheduledEventPerEntry) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    DelayProgram lines(/*use_lines=*/true, seed);
    DelayProgram twin(/*use_lines=*/false, seed);
    const std::vector<DelayProgram::Fire> got = lines.run();
    const std::vector<DelayProgram::Fire> want = twin.run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " fire " << i;
    }
    // Same `scheduled` and `fired`; the lines keep few records live.
    EXPECT_EQ(lines.stats().scheduled, twin.stats().scheduled);
    EXPECT_EQ(lines.stats().fired, twin.stats().fired);
    EXPECT_LT(lines.stats().peak_live, twin.stats().peak_live);
    // The run covers what it is meant to cover.
    EXPECT_GT(lines.rearms_from_empty(), 100u) << "seed " << seed;
    EXPECT_GT(lines.pushes_in_delivery(), 1000u) << "seed " << seed;
    EXPECT_GT(twin.stats().far_hits, 0u) << "seed " << seed;
    std::size_t ties = 0;
    for (std::size_t i = 1; i < want.size(); ++i) {
      ties += want[i].when == want[i - 1].when;
    }
    EXPECT_GT(ties, 1000u) << "seed " << seed;
  }
}

/// Owns a line of `int` entries and records what it delivers.
struct Sink {
  explicit Sink(Simulator& sim) : line(sim, this) {}
  void deliver(int id) { got.push_back(id); }
  std::vector<int> got;
  DelayLine<int, &Sink::deliver> line;
};

TEST(DelayLine, QueueSizeCountsParkedEntries) {
  Simulator sim;
  const EventQueueStats& stats = sim.queue().stats();
  {
    Sink sink(sim);
    for (int i = 0; i < 3; ++i) sink.line.push(msec(50) + i, i);
    EXPECT_EQ(sim.queue().size(), 3u);  // one armed record, two parked
    EXPECT_EQ(stats.scheduled, 3u);
    EXPECT_EQ(stats.peak_live, 1u);
    sim.run_until(msec(50));
    EXPECT_EQ(sink.got, (std::vector<int>{0}));
    EXPECT_EQ(sim.queue().size(), 2u);
    sim.run_until(msec(50) + 1);
    EXPECT_EQ(sim.queue().size(), 1u);
  }
  // A destroyed line takes its entries (armed and parked) with it.
  EXPECT_EQ(sim.queue().size(), 0u);
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(sim.run_to_completion(), 0u);
}

TEST(DelayLine, DestroyedLineDestroysPendingPayloads) {
  auto payload = std::make_shared<int>(0);
  struct Holder {
    explicit Holder(Simulator& sim) : line(sim, this) {}
    void deliver(std::shared_ptr<int> p) { ++*p; }
    DelayLine<std::shared_ptr<int>, &Holder::deliver> line;
  };
  Simulator sim;
  {
    Holder h(sim);
    // Three blocks' worth: some delivered (their block goes spare), the
    // rest span two blocks when the line dies.
    const int n = 3 * static_cast<int>(decltype(h.line)::kBlockEntries);
    for (int i = 0; i < n; ++i) h.line.push(usec(10) + i, payload);
    EXPECT_EQ(payload.use_count(), n + 1);
    sim.run_until(usec(10) + 700);
    EXPECT_EQ(*payload, 701);
    EXPECT_EQ(payload.use_count(), n - 701 + 1);
  }
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(sim.queue().size(), 0u);
}

TEST(DelayLine, NonMonotonePushIsACheckFailure) {
  Simulator sim;
  Sink sink(sim);
  sink.line.push(usec(10), 1);
  sink.line.push(usec(10), 2);  // ties are in order
  EXPECT_DEATH(sink.line.push(usec(9), 3), "pushed out of order");
  sim.run_until(usec(5));
  EXPECT_DEATH(sink.line.push(usec(4), 3), "into the past");
}

TEST(DelayLine, WarmLineCyclingBelowItsHighWaterAllocatesNothing) {
  // A self-sustaining stream: every delivery pushes its successor one
  // constant delay out, and a driver event adds a burst each round, so
  // the occupancy cycles across block boundaries from inside deliveries
  // and from outside.
  struct Stream {
    explicit Stream(Simulator& s) : sim(s), line(s, this) {}
    void deliver(int hops) {
      ++delivered;
      if (hops > 0) line.push(sim.now() + msec(2), hops - 1);
    }
    Simulator& sim;
    std::uint64_t delivered = 0;
    DelayLine<int, &Stream::deliver> line;
  };
  Simulator sim;
  Stream stream(sim);
  auto round = [&] {
    for (int i = 0; i < 1500; ++i) {
      stream.line.push(sim.now() + msec(2) + i, /*hops=*/2);
    }
    sim.run_for(msec(10));
  };
  for (int i = 0; i < 2; ++i) round();  // warm: blocks up to the peak
  const std::uint64_t slabs = sim.queue().stats().slabs_allocated;
  test::AllocationCounter counter;
  for (int i = 0; i < 20; ++i) round();
  EXPECT_EQ(counter.delta(), 0) << "a warm delay line must not allocate";
  EXPECT_EQ(sim.queue().stats().slabs_allocated, slabs);
  EXPECT_EQ(stream.delivered, 22u * 1500 * 3);
  EXPECT_EQ(stream.line.size(), 0u);
}

}  // namespace
}  // namespace es2
