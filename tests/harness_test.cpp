// Tests for the parallel sweep runner: shared-work-index balancing under
// skewed task durations, completeness, determinism of result slots,
// exception propagation out of worker threads, and the one-thread-per-
// event-core rule that sweep tasks rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "harness/parallel.h"
#include "sim/simulator.h"

namespace es2 {
namespace {

using Clock = std::chrono::steady_clock;

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> ran(64);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&ran, i] { ran[static_cast<size_t>(i)]++; });
  }
  ParallelRunner(4).run(std::move(tasks));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(ran[static_cast<size_t>(i)], 1);
}

TEST(ParallelRunner, SkewedTaskDurationsDoNotTailStall) {
  // One 150ms task among many short ones, two workers. A runner that
  // statically pre-partitions (e.g. contiguous halves or round-robin)
  // can strand several long tasks behind one worker; the shared work
  // index keeps the second worker pulling short tasks while the first
  // chews the long one. Budget is generous (2x the balanced optimum)
  // so the assertion stays robust on loaded CI machines.
  using std::chrono::milliseconds;
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { std::this_thread::sleep_for(milliseconds(150)); });
  for (int i = 0; i < 30; ++i) {
    tasks.push_back([] { std::this_thread::sleep_for(milliseconds(5)); });
  }
  const auto start = Clock::now();
  ParallelRunner(2).run(std::move(tasks));
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(Clock::now() - start);
  // Balanced: max(150, 30*5) = 150ms. Serial: 300ms. A tail-stalled
  // split (long task plus half the short ones on one worker) is >= 225ms.
  EXPECT_LT(elapsed.count(), 290);
  EXPECT_GE(elapsed.count(), 150);
}

TEST(ParallelRunner, WorkIndexBalancesSkewAcrossWorkers) {
  // Direct (non-timing) check of dynamic pulling: with 2 workers and the
  // first task blocking until every other task has run, a static
  // pre-partition would deadlock or stall; the work queue finishes.
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&done] {
    while (done.load() < 15) std::this_thread::yield();
  });
  for (int i = 0; i < 15; ++i) {
    tasks.push_back([&done] { done.fetch_add(1); });
  }
  ParallelRunner(2).run(std::move(tasks));
  EXPECT_EQ(done.load(), 15);
}

TEST(ParallelRunner, ResultSlotsAreDeterministic) {
  std::vector<int> results(100, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&results, i] { results[static_cast<size_t>(i)] = i * i; });
  }
  ParallelRunner(8).run(std::move(tasks));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(ParallelRunner, PropagatesFirstExceptionAfterFinishingOthers) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("task 3 failed");
      if (i == 9) throw std::runtime_error("task 9 failed");
    });
  }
  try {
    ParallelRunner(4).run(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
  EXPECT_EQ(ran.load(), 16);  // remaining tasks still ran
}

TEST(ParallelRunner, SerialPathAlsoPropagates) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&ran] {
    ran.fetch_add(1);
    throw std::runtime_error("boom");
  });
  tasks.push_back([&ran] { ran.fetch_add(1); });
  EXPECT_THROW(ParallelRunner(1).run(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);
}

/// One sweep task's event-core work: handles held across run_until
/// slices, copied, cancelled, and outliving their Simulator, all on the
/// thread that runs the task. Returns the number of events fired.
std::uint64_t run_handle_churn(std::uint64_t seed) {
  std::vector<EventHandle> held;  // declared first: outlives `sim`
  std::uint64_t fired = 0;
  Simulator sim(seed);
  Rng rng = sim.make_rng("handles");
  for (int slice = 0; slice < 40; ++slice) {
    for (int i = 0; i < 32; ++i) {
      const auto delay = static_cast<SimDuration>(rng.next_below(usec(300)));
      held.push_back(sim.after(delay, [&fired] { ++fired; }));
    }
    for (int i = 0; i < 8; ++i) {
      EventHandle victim = held[rng.next_below(held.size())];
      victim.cancel();
    }
    sim.run_until(sim.now() + usec(50));
  }
  return fired;
}

TEST(ParallelRunner, SimulatorsKeepTheirEventHandlesOnTheirWorker) {
  // EventHandle counts references to its event core without atomics,
  // which is sound because each sweep task builds, runs and tears down
  // its own Simulator (and every handle into it) on one worker thread.
  // The tsan preset runs this test: a core shared across workers would
  // show up as a data race on that count.
  constexpr int kSims = 6;
  std::vector<std::uint64_t> parallel(kSims, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kSims; ++i) {
    tasks.push_back([&parallel, i] {
      parallel[static_cast<size_t>(i)] =
          run_handle_churn(static_cast<std::uint64_t>(i) + 1);
    });
  }
  ParallelRunner(4).run(std::move(tasks));
  for (int i = 0; i < kSims; ++i) {
    const std::uint64_t serial =
        run_handle_churn(static_cast<std::uint64_t>(i) + 1);
    EXPECT_GT(serial, 0u);
    EXPECT_EQ(parallel[static_cast<size_t>(i)], serial) << "sim " << i;
  }
}

TEST(ParallelFor, CoversRange) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&hits](int i) { hits[static_cast<size_t>(i)]++; }, 8);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 257);
}

}  // namespace
}  // namespace es2
