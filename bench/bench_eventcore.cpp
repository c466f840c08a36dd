// Event-core microbenchmark: the pooled calendar queue on the workload
// shapes the simulator actually produces, every event fired through the
// one dispatch loop (run_until):
//
//   * schedule+fire churn with a rolling occupancy and realistic delay mix
//     (mostly sub-4µs completions, some sub-ms, a tail of long timers),
//     on the bare queue (one event per run_until call) and through
//     Simulator::at + run_until slices (the model's own dispatch entry);
//   * the preempted-CPU-segment pattern: schedule a completion, cancel it
//     before it fires, reschedule (the queue's dominant cancel load);
//   * long-timer churn: tens of thousands of pending 50 ms timers that
//     fire and re-arm, like the storm client's SYN retransmissions (the
//     level-1 wheel's load);
//   * the model's continuation pattern: a three-deep chain of wrapped
//     Callbacks built, moved and invoked (FramePool frames);
//   * packet churn: make_packet, share the handle, release it;
//   * the storm client's request-id table: a 65,536-id window of
//     sequential puts, taken one window later (IdTimeTable).
//
// End-to-end simulation cost is perfbench's to measure, not this bench's.
//
// Emits BENCH_eventcore.json in the shared es2-bench-v2 schema
// (events/sec, ns/event, allocations/event, queue layer counters).
// Wall-clock rates are informational (never gated); allocation counts and
// queue-layer counters are deterministic and gated.
// This binary links es2_alloc_hook, so allocations/event is measured, not
// estimated.
//
// Usage: bench_eventcore [--fast] [--seed=N] [--out=DIR]
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/alloc_hook.h"
#include "base/assert.h"
#include "base/id_time_table.h"
#include "base/rng.h"
#include "base/table.h"
#include "base/units.h"
#include "bench_common.h"
#include "cpu/cfs.h"
#include "cpu/thread.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "base/strings.h"

namespace es2 {
namespace {

using Clock = std::chrono::steady_clock;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// Fires the earliest live event, advancing `now` to its time; false when
/// the queue is empty.
bool fire_next(EventQueue& q, SimTime& now) {
  return q.run_until(kForever, /*max_events=*/1, now) == 1;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The simulator's delay mix: mostly short completions (near/level-0
/// wheel), a tail of long timers up to 100 ms (level-1 wheel).
SimDuration next_delay(Rng& rng) {
  const std::uint64_t r = rng.next_u64();
  const std::uint64_t c = r % 100;
  const std::uint64_t v = r >> 8;
  if (c < 70) return 1 + static_cast<SimDuration>(v % usec(4));
  if (c < 95) return 1 + static_cast<SimDuration>(v % msec(1));
  return 1 + static_cast<SimDuration>(v % msec(100));
}

struct ChurnResult {
  double events_per_sec = 0;
  double ns_per_event = 0;
  double allocs_per_event = 0;
};

/// Rolling schedule+fire churn: fire the earliest event, schedule one
/// replacement, keeping a steady occupancy like a running simulation.
ChurnResult run_fire_churn(std::int64_t target_fires, std::uint64_t seed) {
  EventQueue q;
  Rng rng = Rng::stream(seed, "eventcore-fire");
  SimTime now = 0;
  std::int64_t side_effect = 0;
  const int depth = 1024;
  for (int i = 0; i < depth; ++i) {
    q.schedule(now + next_delay(rng), [&side_effect] { ++side_effect; });
  }
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  for (std::int64_t fired = 0; fired < target_fires; ++fired) {
    fire_next(q, now);
    q.schedule(now + next_delay(rng), [&side_effect] { ++side_effect; });
  }
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ES2_CHECK(side_effect >= target_fires);
  ChurnResult r;
  r.events_per_sec = static_cast<double>(target_fires) / elapsed;
  r.ns_per_event = elapsed * 1e9 / static_cast<double>(target_fires);
  r.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(target_fires);
  return r;
}

/// The schedule+fire churn driven through the model's real dispatch
/// entry: every event re-arms itself through Simulator::at, and the clock
/// advances in run_until slices. A warm-up stretch grows the slabs and
/// heaps to their working size first, so only the steady state is timed.
ChurnResult run_simulator_churn(std::int64_t target_fires, std::uint64_t seed) {
  Simulator sim(seed);
  Rng rng = Rng::stream(seed, "eventcore-fire");
  struct Rearm {
    Simulator* sim;
    Rng* rng;
    void operator()() const { sim->at(sim->now() + next_delay(*rng), *this); }
  };
  for (int i = 0; i < 1024; ++i) sim.at(next_delay(rng), Rearm{&sim, &rng});
  auto run_slices = [&sim](std::uint64_t fires) {
    const std::uint64_t stop = sim.events_executed() + fires;
    while (sim.events_executed() < stop) sim.run_until(sim.now() + usec(10));
  };
  run_slices(static_cast<std::uint64_t>(target_fires) / 4);
  const std::uint64_t fired0 = sim.events_executed();
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  run_slices(static_cast<std::uint64_t>(target_fires));
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  const double fired = static_cast<double>(sim.events_executed() - fired0);
  ChurnResult r;
  r.events_per_sec = fired / elapsed;
  r.ns_per_event = elapsed * 1e9 / fired;
  r.allocs_per_event = static_cast<double>(allocs) / fired;
  return r;
}

/// The preempted-segment pattern: schedule a completion, usually cancel
/// it before it fires and rearm. 4 of 5 completions are cancelled.
ChurnResult run_cancel_churn(std::int64_t target_ops, std::uint64_t seed) {
  EventQueue q;
  Rng rng = Rng::stream(seed, "eventcore-cancel");
  SimTime now = 0;
  std::int64_t side_effect = 0;
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  std::int64_t ops = 0;
  while (ops < target_ops) {
    auto h = q.schedule(now + next_delay(rng), [&side_effect] { ++side_effect; });
    ++ops;
    if (rng.next_u64() % 5 != 0) {
      h.cancel();
      ++ops;
    }
    // Drain a little so live events fire and time advances.
    if (ops % 8 == 0 && fire_next(q, now)) ++ops;
  }
  q.run_until(kForever, std::numeric_limits<std::uint64_t>::max(), now);
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ChurnResult r;
  r.events_per_sec = static_cast<double>(target_ops) / elapsed;
  r.ns_per_event = elapsed * 1e9 / static_cast<double>(target_ops);
  r.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(target_ops);
  return r;
}

/// Work-segment churn through the real thread layer: 8 SimThreads on 2
/// CFS cores, each chaining back-to-back sub-µs segments, so every
/// completion re-arms its thread's resident timer and each CFS slice end
/// freezes one segment and arms another thread's. Counts every fired
/// event (completions, slice timers, resched bottom halves); a warm-up
/// stretch runs untimed first.
ChurnResult run_segment_churn(std::int64_t target_fires, std::uint64_t seed) {
  Simulator sim(seed);
  CfsScheduler sched(sim, 2);
  struct Worker {
    Worker(Simulator& sim, int i, std::uint64_t seed)
        : thread(sim, format("seg%d", i)),
          rng(Rng::stream(seed, format("eventcore-segment%d", i))) {}
    void next() {
      thread.exec(1 + static_cast<SimDuration>(rng.next_below(usec(1))),
                  [this] { next(); });
    }
    SimThread thread;
    Rng rng;
  };
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < 8; ++i) {
    workers.push_back(std::make_unique<Worker>(sim, i, seed));
    Worker* w = workers.back().get();
    sched.add(w->thread);
    w->thread.set_main([w] { w->next(); });
    w->thread.wake();
  }
  auto run_slices = [&sim](std::uint64_t fires) {
    const std::uint64_t stop = sim.events_executed() + fires;
    while (sim.events_executed() < stop) sim.run_until(sim.now() + usec(10));
  };
  run_slices(static_cast<std::uint64_t>(target_fires) / 4);
  const std::uint64_t fired0 = sim.events_executed();
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  run_slices(static_cast<std::uint64_t>(target_fires));
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ES2_CHECK(sched.context_switches() > 0);
  const double fired = static_cast<double>(sim.events_executed() - fired0);
  ChurnResult r;
  r.events_per_sec = fired / elapsed;
  r.ns_per_event = elapsed * 1e9 / fired;
  r.allocs_per_event = static_cast<double>(allocs) / fired;
  return r;
}

/// The storm client's timer shape: kTimers pending 50 ms timers (plus up
/// to 100 µs of jitter), each re-armed as it fires, so the queue holds
/// tens of thousands of events past the level-0 horizon at a steady
/// rate. One full period runs untimed first, so the pool and every tier
/// reach their working size.
ChurnResult run_long_timer_churn(std::int64_t target_fires,
                                 std::uint64_t seed) {
  constexpr int kTimers = 32768;
  EventQueue q;
  Rng rng = Rng::stream(seed, "eventcore-long-timer");
  SimTime now = 0;
  std::int64_t side_effect = 0;
  auto arm = [&q, &side_effect](SimTime when) {
    q.schedule(when, [&side_effect] { ++side_effect; });
  };
  auto fire_and_rearm = [&] {
    fire_next(q, now);
    arm(now + msec(50) + static_cast<SimDuration>(rng.next_below(usec(100))));
  };
  for (int i = 0; i < kTimers; ++i) {
    arm(static_cast<SimTime>(rng.next_below(msec(50))));
  }
  for (int i = 0; i < kTimers; ++i) fire_and_rearm();
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  for (std::int64_t fired = 0; fired < target_fires; ++fired) {
    fire_and_rearm();
  }
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ES2_CHECK(side_effect >= target_fires);
  ChurnResult r;
  r.events_per_sec = static_cast<double>(target_fires) / elapsed;
  r.ns_per_event = elapsed * 1e9 / static_cast<double>(target_fires);
  r.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(target_fires);
  return r;
}

/// Times `op` over `target` iterations after one warm-up call (which may
/// carve FramePool slabs), counting allocations over the timed part only.
template <typename Op>
ChurnResult run_pooled(std::int64_t target, Op op) {
  op(0);
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  for (std::int64_t i = 1; i <= target; ++i) op(i);
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ChurnResult r;
  r.events_per_sec = static_cast<double>(target) / elapsed;
  r.ns_per_event = elapsed * 1e9 / static_cast<double>(target);
  r.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(target);
  return r;
}

/// vCPU exec -> thread segment -> caller: each hop wraps the previous
/// continuation, so the outer two live in FramePool frames.
ChurnResult run_continuation_chain(std::int64_t target) {
  std::int64_t sink = 0;
  const ChurnResult r = run_pooled(target, [&sink](std::int64_t i) {
    Callback<void()> done = [&sink, i] { sink += i; };
    Callback<void()> segment = [&sink, done = std::move(done)] {
      done();
      ++sink;
    };
    Callback<void()> exec = [&sink, segment = std::move(segment), i] {
      segment();
      sink ^= i;
    };
    Callback<void()> fired = std::move(exec);
    fired();
  });
  ES2_CHECK(sink != 0);
  return r;
}

/// A packet's life on a ring: made, shared into a 64-deep queue, and
/// released when a later packet takes its slot.
ChurnResult run_packet_make_release(std::int64_t target) {
  std::array<PacketPtr, 64> ring;
  std::uint64_t sink = 0;
  const ChurnResult r = run_pooled(target, [&ring, &sink](std::int64_t i) {
    Packet p;
    p.flow = static_cast<std::uint64_t>(i);
    p.wire_size = 1078;
    const PacketPtr made = make_packet(p);
    PacketPtr& slot = ring[static_cast<std::size_t>(i) % ring.size()];
    if (slot) sink += slot->flow;
    slot = made;
  });
  ES2_CHECK(sink != 0);
  return r;
}

/// The storm client's SYN table: ids put in send order, a 65,536-id
/// window outstanding, each taken at its timeout one window later. One id
/// in four (a fixed pseudo-random pattern) is answered a few ids after its
/// put, so its timeout take finds nothing. An op is one put or take; two
/// windows run untimed first.
ChurnResult run_id_table_window(std::int64_t target_ops, std::uint64_t seed) {
  constexpr std::uint64_t kWindow = 65536;
  constexpr std::uint64_t kAnswerLag = 24;
  std::vector<bool> answered_early(kWindow);
  Rng rng = Rng::stream(seed, "eventcore-id-table");
  for (std::size_t i = 0; i < kWindow; ++i) {
    answered_early[i] = rng.next_below(4) == 0;
  }
  IdTimeTable table;
  std::uint64_t id = 0;
  std::int64_t ops = 0;
  SimTime sink = 0;
  auto send = [&] {
    table.put(id, static_cast<SimTime>(id));
    ++ops;
    if (id >= kAnswerLag && answered_early[(id - kAnswerLag) % kWindow]) {
      sink += *table.take(id - kAnswerLag);
      ++ops;
    }
    if (id >= kWindow) {
      if (const auto sent = table.take(id - kWindow)) sink += *sent;
      ++ops;
    }
    ++id;
  };
  while (id < 2 * kWindow) send();
  ops = 0;
  const std::int64_t alloc0 = test::allocation_count();
  const auto start = Clock::now();
  while (ops < target_ops) send();
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ES2_CHECK(sink != 0 && table.size() <= kWindow);
  ChurnResult r;
  r.events_per_sec = static_cast<double>(ops) / elapsed;
  r.ns_per_event = elapsed * 1e9 / static_cast<double>(ops);
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(ops);
  return r;
}

/// Runs a long enough mixed workload on the production queue to report
/// the calendar-layer counters in the JSON.
EventQueueStats layer_stats(std::uint64_t seed) {
  EventQueue q;
  Rng rng = Rng::stream(seed, "eventcore-layers");
  SimTime now = 0;
  std::int64_t sink = 0;
  for (int i = 0; i < 512; ++i) {
    q.schedule(now + next_delay(rng), [&sink] { ++sink; });
  }
  for (int i = 0; i < 200000; ++i) {
    fire_next(q, now);
    auto h = q.schedule(now + next_delay(rng), [&sink] { ++sink; });
    if (rng.next_u64() % 3 == 0) {
      h.cancel();
      q.schedule(now + next_delay(rng), [&sink] { ++sink; });
    }
  }
  return q.stats();
}

int bench_main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const bool fast = args.fast;
  const std::uint64_t seed = args.seed;

  std::printf("================================================================\n");
  std::printf("eventcore — pooled calendar queue\n");
  std::printf("================================================================\n");

  const std::int64_t fires = fast ? 300000 : 3000000;
  const std::int64_t cancel_ops = fast ? 300000 : 3000000;

  const ChurnResult fire_new = run_fire_churn(fires, seed);
  const ChurnResult fire_sim = run_simulator_churn(fires, seed);
  const ChurnResult cancel_new = run_cancel_churn(cancel_ops, seed);
  const ChurnResult segments = run_segment_churn(fires, seed);
  const ChurnResult long_timers = run_long_timer_churn(fires, seed);
  const ChurnResult chain = run_continuation_chain(fires);
  const ChurnResult packets = run_packet_make_release(fires);
  const ChurnResult ids = run_id_table_window(fires, seed);

  Table t({"workload", "impl", "events/s", "ns/event", "allocs/event"});
  auto row = [&t](const char* wl, const char* impl, const ChurnResult& r) {
    t.add_row({wl, impl, with_commas(static_cast<std::int64_t>(r.events_per_sec)),
               fixed(r.ns_per_event, 1), fixed(r.allocs_per_event, 4)});
  };
  row("schedule+fire", "pooled", fire_new);
  row("schedule+fire", "simulator", fire_sim);
  row("cancel churn", "pooled", cancel_new);
  row("segment churn", "simulator", segments);
  row("long-timer churn", "pooled", long_timers);
  row("continuation chain", "pooled", chain);
  row("packet make+release", "pooled", packets);
  row("id table window", "direct", ids);
  std::printf("%s", t.render().c_str());

  const EventQueueStats stats = layer_stats(seed);
  std::printf(
      "layers: near %llu, wheel %llu, far %llu (migrations %llu), boxed %llu\n",
      static_cast<unsigned long long>(stats.near_hits),
      static_cast<unsigned long long>(stats.wheel_hits),
      static_cast<unsigned long long>(stats.far_hits),
      static_cast<unsigned long long>(stats.far_migrations),
      static_cast<unsigned long long>(stats.boxed_callbacks));

  BenchReport report = bench::make_report(args, "eventcore");
  auto add_churn = [&report](const char* name, const ChurnResult& r) {
    const std::string p = std::string(name) + ".";
    // Wall-clock rates are machine-dependent: informational only. The
    // allocation count per event is deterministic — identical in Release,
    // Debug and ASan builds — and gated exactly: it is the
    // zero-steady-state-allocation claim.
    report.add_info(p + "events_per_sec", r.events_per_sec);
    report.add_info(p + "ns_per_event", r.ns_per_event);
    report.add(p + "allocs_per_event", r.allocs_per_event);
  };
  add_churn("schedule_fire_pooled", fire_new);
  add_churn("simulator_run_until", fire_sim);
  add_churn("cancel_churn_pooled", cancel_new);
  add_churn("segment_churn", segments);
  add_churn("long_timer_churn", long_timers);
  add_churn("continuation_chain_pooled", chain);
  add_churn("packet_make_release", packets);
  // Per table call (put or take), not per event.
  report.add_info("id_table_window.ns_per_op", ids.ns_per_event);
  report.add("id_table_window.allocs_per_op", ids.allocs_per_event);
  // The layer counters are same-seed deterministic: gated exactly.
  report.add("layers.near_hits", static_cast<double>(stats.near_hits));
  report.add("layers.wheel_hits", static_cast<double>(stats.wheel_hits));
  report.add("layers.far_hits", static_cast<double>(stats.far_hits));
  report.add("layers.far_migrations",
             static_cast<double>(stats.far_migrations));
  report.add("layers.peak_live", static_cast<double>(stats.peak_live));
  report.add("layers.boxed_callbacks",
             static_cast<double>(stats.boxed_callbacks));
  bench::write_bench_report(args, report);
  if (!bench::export_standalone(args)) return 1;
  return 0;
}

}  // namespace
}  // namespace es2

int main(int argc, char** argv) { return es2::bench_main(argc, argv); }
