// Unit tests for SimThread and the CFS-like scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/cfs.h"

namespace es2 {
namespace {

/// Test helper: a thread that busy-loops in fixed work units.
struct BusyThread {
  BusyThread(Simulator& sim, CfsScheduler& sched, const std::string& name,
             int core, SimDuration unit = usec(50), int weight = kWeightNice0)
      : thread(sim, name, weight) {
    thread.set_main([this, unit] { spin(unit); });
    sched.add(thread, core);
  }
  void spin(SimDuration unit) {
    ++units;
    thread.exec(unit, [] {});
  }
  SimThread thread;
  int units = 0;
};

CfsParams no_jitter() {
  CfsParams p;
  p.slice_jitter = 0.0;
  return p;
}

TEST(SimThread, ExecThenDoneRunsInOrder) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  SimThread t(sim, "t");
  std::vector<int> order;
  t.set_main([&] {
    t.exec(usec(10), [&] {
      order.push_back(1);
      t.exec(usec(10), [&] {
        order.push_back(2);
        t.block();
      });
    });
  });
  sched.add(t, 0);
  t.wake();
  sim.run_for(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(t.state(), SimThread::State::kBlocked);
  EXPECT_EQ(t.cpu_time(), usec(20));
}

TEST(SimThread, WakeAfterBlockResumesMain) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  SimThread t(sim, "t");
  int runs = 0;
  t.set_main([&] {
    ++runs;
    t.exec(usec(5), [&] { t.block(); });
  });
  sched.add(t, 0);
  t.wake();
  sim.run_for(msec(1));
  EXPECT_EQ(runs, 1);
  t.wake();
  sim.run_for(msec(1));
  EXPECT_EQ(runs, 2);
}

TEST(SimThread, WakeOnRunnableIsNoOp) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  BusyThread a(sim, sched, "a", 0);
  a.thread.wake();
  sim.run_for(msec(1));
  a.thread.wake();  // already running
  sim.run_for(msec(1));
  EXPECT_EQ(a.thread.state(), SimThread::State::kRunning);
}

TEST(SimThread, SuspendAndResumeSegmentPreservesRemaining) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  SimThread t(sim, "t");
  bool finished = false;
  t.set_main([&] {
    t.exec(usec(100), [&] { finished = true; t.block(); });
  });
  sched.add(t, 0);
  t.wake();
  sim.run_for(usec(30));  // 30us into the 100us segment
  auto seg = t.suspend_active();
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(seg->remaining, usec(70));
  EXPECT_FALSE(finished);
  t.resume_segment(std::move(*seg));
  sim.run_for(usec(71));
  EXPECT_TRUE(finished);
}

TEST(Cfs, FairSharesOnOneCore) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  std::vector<std::unique_ptr<BusyThread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(std::make_unique<BusyThread>(
        sim, sched, "t" + std::to_string(i), 0));
    threads.back()->thread.wake();
  }
  sim.run_for(sec(1));
  for (auto& t : threads) {
    EXPECT_NEAR(to_seconds(t->thread.cpu_time()), 0.25, 0.01) << t->thread.name();
  }
}

TEST(Cfs, WeightsSkewShares) {
  // A nice-19 "burn" thread should get a tiny share against a nice-0 one.
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  BusyThread heavy(sim, sched, "normal", 0, usec(50), kWeightNice0);
  BusyThread light(sim, sched, "burn", 0, usec(50), kWeightNice19);
  heavy.thread.wake();
  light.thread.wake();
  sim.run_for(sec(1));
  const double heavy_share = to_seconds(heavy.thread.cpu_time());
  const double light_share = to_seconds(light.thread.cpu_time());
  EXPECT_GT(heavy_share, 0.93);
  EXPECT_LT(light_share, 0.07);
  EXPECT_NEAR(heavy_share + light_share, 1.0, 0.01);
}

TEST(Cfs, IdleCoreRunsWakerImmediately) {
  Simulator sim;
  CfsScheduler sched(sim, 2, no_jitter());
  BusyThread a(sim, sched, "a", 1);
  const SimTime before = sim.now();
  a.thread.wake();
  sim.run_for(usec(1));
  EXPECT_EQ(a.thread.state(), SimThread::State::kRunning);
  EXPECT_LE(sim.now() - before, usec(1));
}

TEST(Cfs, PinnedThreadsStayOnTheirCore) {
  Simulator sim;
  CfsScheduler sched(sim, 2, no_jitter());
  BusyThread a(sim, sched, "a", 1);
  a.thread.wake();
  sim.run_for(msec(10));
  ASSERT_NE(a.thread.core(), nullptr);
  EXPECT_EQ(a.thread.core()->id(), 1);
}

TEST(Cfs, UnpinnedThreadPicksLeastLoadedCore) {
  Simulator sim;
  CfsScheduler sched(sim, 2, no_jitter());
  BusyThread pinned(sim, sched, "pinned", 0);
  pinned.thread.wake();
  sim.run_for(msec(1));
  BusyThread free_thread(sim, sched, "free", -1);
  free_thread.thread.wake();
  sim.run_for(msec(1));
  ASSERT_NE(free_thread.thread.core(), nullptr);
  EXPECT_EQ(free_thread.thread.core()->id(), 1);
}

TEST(Cfs, PreemptionNotifiersFireInPairs) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  BusyThread a(sim, sched, "a", 0);
  BusyThread b(sim, sched, "b", 0);
  int ins = 0, outs = 0;
  a.thread.add_notifier([&](SimThread&, bool in) { in ? ++ins : ++outs; });
  a.thread.wake();
  b.thread.wake();
  sim.run_for(msec(100));
  EXPECT_GT(ins, 5);
  // The thread is either running (ins = outs + 1) or not (ins = outs).
  EXPECT_TRUE(ins == outs || ins == outs + 1);
}

TEST(Cfs, ContextSwitchRateMatchesTimeslice) {
  // 4 equal threads on one core with 6ms latency -> 1.5ms slices
  // -> ~667 switches per second.
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  std::vector<std::unique_ptr<BusyThread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(std::make_unique<BusyThread>(
        sim, sched, "t" + std::to_string(i), 0));
    threads.back()->thread.wake();
  }
  sim.run_for(sec(1));
  const auto switches = sched.core(0).context_switches();
  EXPECT_GT(switches, 600u);
  EXPECT_LT(switches, 750u);
}

TEST(Cfs, SleeperGetsScheduledQuicklyAfterWake) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  BusyThread hog(sim, sched, "hog", 0);
  hog.thread.wake();
  sim.run_for(msec(50));

  SimThread sleeper(sim, "sleeper");
  SimTime ran_at = -1;
  sleeper.set_main([&] {
    ran_at = sim.now();
    sleeper.exec(usec(1), [&] { sleeper.block(); });
  });
  sched.add(sleeper, 0);
  const SimTime woke_at = sim.now();
  sleeper.wake();
  sim.run_for(msec(20));
  ASSERT_GE(ran_at, 0);
  // Sleeper placement must beat waiting a full rotation.
  EXPECT_LT(ran_at - woke_at, msec(2));
}

TEST(Cfs, BlockedThreadConsumesNoCpu) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  BusyThread a(sim, sched, "a", 0);
  SimThread idle(sim, "idle");
  idle.set_main([&] { idle.block(); });
  sched.add(idle, 0);
  a.thread.wake();
  sim.run_for(sec(1));
  EXPECT_EQ(idle.cpu_time(), 0);
  EXPECT_NEAR(to_seconds(a.thread.cpu_time()), 1.0, 0.01);
}

TEST(Cfs, FinishRemovesThread) {
  Simulator sim;
  CfsScheduler sched(sim, 1, no_jitter());
  BusyThread a(sim, sched, "a", 0);
  BusyThread b(sim, sched, "b", 0);
  a.thread.wake();
  b.thread.wake();
  sim.run_for(msec(10));
  a.thread.finish();
  const SimDuration b_before = b.thread.cpu_time();
  sim.run_for(msec(100));
  EXPECT_EQ(a.thread.state(), SimThread::State::kFinished);
  EXPECT_NEAR(to_seconds(b.thread.cpu_time() - b_before), 0.1, 0.002);
}

TEST(Cfs, SliceJitterDesynchronizesIdenticalCores) {
  // Two cores with identical thread sets must not context-switch at the
  // same instants forever when jitter is on.
  Simulator sim(7);
  CfsParams params;  // default jitter on
  CfsScheduler sched(sim, 2, params);
  std::vector<std::unique_ptr<BusyThread>> threads;
  for (int core = 0; core < 2; ++core) {
    for (int i = 0; i < 2; ++i) {
      threads.push_back(std::make_unique<BusyThread>(
          sim, sched, "t", core));
      threads.back()->thread.wake();
    }
  }
  sim.run_for(sec(1));
  const auto s0 = sched.core(0).context_switches();
  const auto s1 = sched.core(1).context_switches();
  EXPECT_GT(s0, 100u);
  EXPECT_NE(s0, s1);  // jitter makes counts drift apart
}

}  // namespace
}  // namespace es2
