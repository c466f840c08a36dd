// Event-core microbenchmark: the pooled calendar queue against the seed's
// heap-of-std::function queue (kept verbatim below as `legacy::EventQueue`),
// on the workload shapes the simulator actually produces:
//
//   * schedule+fire churn with a rolling occupancy and realistic delay mix
//     (mostly sub-4µs completions, some sub-ms, a tail of long timers);
//   * the preempted-CPU-segment pattern: schedule a completion, cancel it
//     before it fires, reschedule (the queue's dominant cancel load);
//   * the model's continuation pattern: a three-deep chain of wrapped
//     Callbacks built, moved and invoked (FramePool frames);
//   * packet churn: make_packet, share the handle, release it;
//   * the end-to-end Fig. 4 quota sweep wall time.
//
// Emits BENCH_eventcore.json in the shared es2-bench-v1 schema
// (events/sec, ns/event, allocations/event, speedup vs legacy, fig4 wall
// seconds, queue layer counters) so the perf trajectory is tracked from
// this PR onward. Wall-clock rates are informational (never gated);
// allocation counts and queue-layer counters are deterministic and gated.
// This binary links es2_alloc_hook, so allocations/event is measured, not
// estimated.
//
// Usage: bench_eventcore [--fast] [--seed=N] [--out=DIR]
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/alloc_hook.h"
#include "base/assert.h"
#include "base/rng.h"
#include "base/table.h"
#include "base/units.h"
#include "bench_common.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/event_queue.h"
#include "base/strings.h"

namespace es2::legacy {

// The seed event queue, verbatim: binary heap of (time, seq) entries, one
// std::function + one shared_ptr<bool> control block per event, lazy
// cancellation skimmed at the heap top. Kept here as the benchmark
// baseline so the speedup claim stays reproducible.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel() {
    if (alive_ && *alive_) *alive_ = false;
  }
  bool pending() const { return alive_ && *alive_; }

 private:
  friend class EventQueue;
  explicit EventHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventHandle schedule(SimTime when, std::function<void()> fn) {
    ES2_CHECK_MSG(when >= 0, "cannot schedule before time 0");
    auto alive = std::make_shared<bool>(true);
    heap_.push_back(Entry{when, next_seq_++, std::move(fn), alive});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventHandle(std::move(alive));
  }
  bool has_next() {
    skim();
    return !heap_.empty();
  }
  SimTime next_time() {
    skim();
    return heap_.front().when;
  }
  SimTime pop_and_run() {
    skim();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    *entry.alive = false;
    entry.fn();
    return entry.when;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  void skim() {
    while (!heap_.empty() && !*heap_.front().alive) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace es2::legacy

namespace es2 {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The simulator's delay mix: mostly short completions (near/wheel),
/// a tail of long timers (overflow heap).
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

/// Rolling schedule+fire churn: pop the earliest event, schedule one
/// replacement, keeping a steady occupancy like a running simulation.
template <typename Queue>
ChurnResult run_fire_churn(std::int64_t target_fires, std::uint64_t seed) {
  Queue q;
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
    now = q.pop_and_run();
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

/// The preempted-segment pattern: schedule a completion, usually cancel
/// it before it fires and rearm. 4 of 5 completions are cancelled.
template <typename Queue>
ChurnResult run_cancel_churn(std::int64_t target_ops, std::uint64_t seed) {
  Queue q;
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
    if (ops % 8 == 0 && q.has_next()) {
      now = q.pop_and_run();
      ++ops;
    }
  }
  while (q.has_next()) q.pop_and_run();
  const double elapsed = seconds_since(start);
  const std::int64_t allocs = test::allocation_count() - alloc0;
  ChurnResult r;
  r.events_per_sec = static_cast<double>(target_ops) / elapsed;
  r.ns_per_event = elapsed * 1e9 / static_cast<double>(target_ops);
  r.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(target_ops);
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

/// End-to-end check: wall time of the Fig. 4 quota sweep (the PR's
/// representative full-simulation workload) on the production queue.
double fig4_sweep_seconds(bool fast, std::uint64_t seed) {
  struct Case {
    Proto proto;
    Bytes msg;
  };
  const std::vector<Case> cases = fast
      ? std::vector<Case>{{Proto::kUdp, 1024}, {Proto::kTcp, 1024}}
      : std::vector<Case>{{Proto::kUdp, 256}, {Proto::kUdp, 1024},
                          {Proto::kTcp, 1024}};
  const std::vector<int> quotas =
      fast ? std::vector<int>{0, 8, 2} : std::vector<int>{0, 64, 32, 16, 8, 4, 2};
  std::vector<StreamResult> results(cases.size() * quotas.size());
  std::vector<std::function<void()>> tasks;
  for (size_t c = 0; c < cases.size(); ++c) {
    for (size_t q = 0; q < quotas.size(); ++q) {
      tasks.push_back([&, c, q] {
        StreamOptions o;
        o.config = quotas[q] == 0 ? Es2Config::pi() : Es2Config::pi_h(quotas[q]);
        o.proto = cases[c].proto;
        o.msg_size = cases[c].msg;
        o.vm_sends = true;
        o.seed = seed;
        o.warmup = fast ? msec(50) : msec(250);
        o.measure = fast ? msec(150) : msec(800);
        results[c * quotas.size() + q] = run_stream(o);
      });
    }
  }
  const auto start = Clock::now();
  ParallelRunner().run(std::move(tasks));
  return seconds_since(start);
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
    now = q.pop_and_run();
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
  std::printf("eventcore — pooled calendar queue vs seed heap+std::function\n");
  std::printf("================================================================\n");

  const std::int64_t fires = fast ? 300000 : 3000000;
  const std::int64_t cancel_ops = fast ? 300000 : 3000000;

  const ChurnResult fire_new = run_fire_churn<EventQueue>(fires, seed);
  const ChurnResult fire_old = run_fire_churn<legacy::EventQueue>(fires, seed);
  const ChurnResult cancel_new = run_cancel_churn<EventQueue>(cancel_ops, seed);
  const ChurnResult cancel_old =
      run_cancel_churn<legacy::EventQueue>(cancel_ops, seed);
  const ChurnResult chain = run_continuation_chain(fires);
  const ChurnResult packets = run_packet_make_release(fires);

  Table t({"workload", "impl", "events/s", "ns/event", "allocs/event"});
  auto row = [&t](const char* wl, const char* impl, const ChurnResult& r) {
    t.add_row({wl, impl, with_commas(static_cast<std::int64_t>(r.events_per_sec)),
               fixed(r.ns_per_event, 1), fixed(r.allocs_per_event, 4)});
  };
  row("schedule+fire", "pooled", fire_new);
  row("schedule+fire", "legacy", fire_old);
  row("cancel churn", "pooled", cancel_new);
  row("cancel churn", "legacy", cancel_old);
  row("continuation chain", "pooled", chain);
  row("packet make+release", "pooled", packets);
  std::printf("%s", t.render().c_str());
  std::printf("speedup: schedule+fire %.2fx, cancel churn %.2fx\n",
              fire_new.events_per_sec / fire_old.events_per_sec,
              cancel_new.events_per_sec / cancel_old.events_per_sec);

  const EventQueueStats stats = layer_stats(seed);
  std::printf(
      "layers: near %llu, wheel %llu, far %llu (migrations %llu), boxed %llu\n",
      static_cast<unsigned long long>(stats.near_hits),
      static_cast<unsigned long long>(stats.wheel_hits),
      static_cast<unsigned long long>(stats.far_hits),
      static_cast<unsigned long long>(stats.far_migrations),
      static_cast<unsigned long long>(stats.boxed_callbacks));

  const double fig4_s = fig4_sweep_seconds(fast, seed);
  std::printf("fig4 sweep wall time: %.3fs%s\n", fig4_s,
              fast ? " (--fast)" : "");

  BenchReport report = bench::make_report(args, "eventcore");
  auto add_churn = [&report](const char* name, const ChurnResult& r) {
    const std::string p = std::string(name) + ".";
    // Wall-clock rates are machine-dependent: informational only. The
    // allocation count per event is deterministic and gated — it is the
    // zero-steady-state-allocation claim.
    report.add_info(p + "events_per_sec", r.events_per_sec);
    report.add_info(p + "ns_per_event", r.ns_per_event);
    report.add(p + "allocs_per_event", r.allocs_per_event, 0.1);
  };
  add_churn("schedule_fire_pooled", fire_new);
  add_churn("schedule_fire_legacy", fire_old);
  add_churn("cancel_churn_pooled", cancel_new);
  add_churn("cancel_churn_legacy", cancel_old);
  add_churn("continuation_chain_pooled", chain);
  add_churn("packet_make_release", packets);
  report.add_info("speedup_schedule_fire",
                  fire_new.events_per_sec / fire_old.events_per_sec);
  report.add_info("speedup_cancel_churn",
                  cancel_new.events_per_sec / cancel_old.events_per_sec);
  report.add_info("fig4_sweep_wall_seconds", fig4_s);
  report.add("layers.near_hits", static_cast<double>(stats.near_hits));
  report.add("layers.wheel_hits", static_cast<double>(stats.wheel_hits));
  report.add("layers.far_hits", static_cast<double>(stats.far_hits));
  report.add("layers.far_migrations",
             static_cast<double>(stats.far_migrations));
  report.add("layers.peak_live", static_cast<double>(stats.peak_live));
  report.add("layers.boxed_callbacks",
             static_cast<double>(stats.boxed_callbacks), 0.0);
  bench::write_bench_report(args, report);
  if (!bench::export_standalone_hash_log(args)) return 1;
  if (!bench::export_standalone_profile(args)) return 1;
  return 0;
}

}  // namespace
}  // namespace es2

int main(int argc, char** argv) { return es2::bench_main(argc, argv); }
