// Tests for the parallel sweep runner (parallel_for): shared-work-index
// balancing under skewed task durations, completeness, determinism of
// result slots, exception propagation out of worker threads, and the
// one-thread-per-event-core rule that sweep tasks rely on.
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
  parallel_for(64, [&ran](int i) { ran[static_cast<size_t>(i)]++; }, 4);
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
  const auto start = Clock::now();
  parallel_for(
      31,
      [](int i) {
        std::this_thread::sleep_for(milliseconds(i == 0 ? 150 : 5));
      },
      2);
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
  parallel_for(
      16,
      [&done](int i) {
        if (i > 0) {
          done.fetch_add(1);
          return;
        }
        while (done.load() < 15) std::this_thread::yield();
      },
      2);
  EXPECT_EQ(done.load(), 15);
}

TEST(ParallelRunner, ResultSlotsAreDeterministic) {
  std::vector<int> results(100, 0);
  parallel_for(
      100, [&results](int i) { results[static_cast<size_t>(i)] = i * i; }, 8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(ParallelRunner, PropagatesFirstExceptionAfterFinishingOthers) {
  std::atomic<int> ran{0};
  try {
    parallel_for(
        16,
        [&ran](int i) {
          ran.fetch_add(1);
          if (i == 3) throw std::runtime_error("task 3 failed");
          if (i == 9) throw std::runtime_error("task 9 failed");
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
  EXPECT_EQ(ran.load(), 16);  // remaining tasks still ran
}

TEST(ParallelRunner, SerialPathAlsoPropagates) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(
                   2,
                   [&ran](int i) {
                     ran.fetch_add(1);
                     if (i == 0) throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
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
  parallel_for(
      kSims,
      [&parallel](int i) {
        parallel[static_cast<size_t>(i)] =
            run_handle_churn(static_cast<std::uint64_t>(i) + 1);
      },
      4);
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
