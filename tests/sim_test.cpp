// Unit tests for the simulation kernel: event ordering, cancellation,
// deferred events, timers, determinism.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace es2 {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameInstantFiresInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run_until(5);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.at(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run_until(100);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int count = 0;
  EventHandle h = sim.at(10, [&] { ++count; });
  sim.run_until(100);
  EXPECT_EQ(count, 1);
  h.cancel();  // no-op after fire
  h.cancel();
  EXPECT_FALSE(h.pending());
  EventHandle empty;
  empty.cancel();  // empty handle is safe
}

TEST(Simulator, ClockAdvancesBeforeCallbackRuns) {
  // Regression test: a callback scheduling with defer() must land at its
  // own timestamp, not at the previous event's.
  Simulator sim;
  SimTime observed = -1;
  SimTime deferred_at = -1;
  sim.at(100, [&] {
    observed = sim.now();
    sim.defer([&] { deferred_at = sim.now(); });
  });
  sim.at(40, [] {});
  sim.run_until(1000);
  EXPECT_EQ(observed, 100);
  EXPECT_EQ(deferred_at, 100);
}

TEST(Simulator, DeferRunsAfterAlreadyQueuedSameInstant) {
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] {
    sim.defer([&] { order.push_back(2); });
  });
  sim.at(10, [&] { order.push_back(1); });
  sim.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunForAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_for(msec(5));
  EXPECT_EQ(sim.now(), msec(5));
  sim.run_for(msec(5));
  EXPECT_EQ(sim.now(), msec(10));
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
  Simulator sim;
  bool late = false;
  sim.at(200, [&] { late = true; });
  sim.run_until(100);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), 100);
  sim.run_until(300);
  EXPECT_TRUE(late);
}

TEST(Simulator, EventsExecutedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(i, [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CascadingEventsWithinRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> cascade = [&] {
    if (++depth < 50) sim.after(10, cascade);
  };
  sim.after(10, cascade);
  sim.run_until(sec(1));
  EXPECT_EQ(depth, 50);
}

TEST(Simulator, NamedRngStreamsAreStableAcrossInstances) {
  Simulator a(99), b(99);
  Rng ra = a.make_rng("x");
  Rng rb = b.make_rng("x");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(PeriodicTimer, FiresAtPeriodUntilStopped) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, msec(10), [&] { ++fires; });
  timer.start();
  sim.run_until(msec(55));
  EXPECT_EQ(fires, 5);
  timer.stop();
  sim.run_until(msec(200));
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, StopFromWithinCallback) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, msec(1), [&] {
    if (++fires == 3) timer.stop();
  });
  timer.start();
  sim.run_until(msec(100));
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, msec(1), [&] { ++fires; });
  timer.start();
  sim.run_until(msec(3));
  timer.stop();
  timer.start();
  sim.run_until(msec(6));
  EXPECT_GE(fires, 5);
}

TEST(PeriodicTimer, RestartInsideOwnTickKeepsOneTickPending) {
  // stop(); start() from the tick itself re-arms the timer; the tick's
  // own trailing re-arm must not add a second tick on top of it.
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, usec(10), [&] {
    if (++fires == 3) {
      timer.stop();
      timer.start();
    }
  });
  timer.start();
  sim.run_until(usec(35));
  EXPECT_EQ(sim.queue().size(), 1u);
  sim.run_until(usec(100));
  EXPECT_EQ(fires, 10);
  EXPECT_EQ(sim.queue().size(), 1u);
}

}  // namespace
}  // namespace es2
