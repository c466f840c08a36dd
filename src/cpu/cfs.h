// CFS-like fair scheduler over simulated cores.
//
// Mirrors the pieces of the Linux Completely Fair Scheduler that matter for
// the paper's experiments: per-core runqueues ordered by virtual runtime,
// weight-scaled vruntime accrual (so "lowest-priority CPU burn" threads
// yield to vCPU threads), a latency-target timeslice with minimum
// granularity, sleeper placement, wakeup preemption, and least-loaded core
// selection for unpinned threads.
//
// All scheduling decisions are funneled through a deferred per-core
// resched event, so component callbacks never observe a context switch in
// their own stack frame.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "cpu/thread.h"
#include "sim/simulator.h"

namespace es2 {

class MetricsRegistry;

struct CfsParams {
  SimDuration sched_latency = msec(6);
  SimDuration min_granularity = usec(750);
  SimDuration wakeup_granularity = msec(1);
  /// Sleeper bonus: a waking thread is placed no further back than
  /// min_vruntime - sched_latency (Linux GENTLE_FAIR_SLEEPERS halves it).
  bool gentle_sleepers = true;
  /// Multiplicative jitter (uniform +/- fraction) applied to each
  /// timeslice. Real cores never tick in lockstep — interrupts, cache
  /// misses and softirqs desynchronize them. Without this, symmetric
  /// multi-VM setups gang-schedule sibling vCPUs across cores, which is
  /// neither realistic nor what the paper's redirection premise assumes.
  double slice_jitter = 0.12;
};

class CfsScheduler;

/// One physical core: at most one running thread plus a fair runqueue.
class Core {
 public:
  Core(CfsScheduler& sched, int id);
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int id() const { return id_; }
  SimThread* current() const { return current_; }
  bool idle() const { return current_ == nullptr; }

  /// Runnable threads including the one currently running.
  int nr_running() const;

  /// Total load weight of runnable threads (for least-loaded placement).
  std::int64_t load() const;

  /// Floor of the core's virtual-runtime clock; must never move backwards
  /// (exposed for invariant auditing).
  double min_vruntime() const { return min_vruntime_; }

  std::uint64_t context_switches() const { return context_switches_; }

  /// Wakeup preemptions requested on this core (a waking thread beat the
  /// running one by more than the wakeup granularity).
  std::uint64_t preemptions() const { return preemptions_; }

 private:
  friend class CfsScheduler;

  struct ByVruntime {
    bool operator()(const SimThread* a, const SimThread* b) const {
      if (a->vruntime() != b->vruntime()) return a->vruntime() < b->vruntime();
      return a->id() < b->id();
    }
  };

  CfsScheduler& sched_;
  int id_;
  SimThread* current_ = nullptr;
  /// Runnable threads sorted by ByVruntime (front = next to run).
  /// CfsScheduler::add reserves room for every registered thread, so
  /// enqueue and dequeue never allocate.
  std::vector<SimThread*> rq_;
  double min_vruntime_ = 0.0;
  bool resched_pending_ = false;
  // Not a ResidentTimer: it sits idle whenever the core has no contender,
  // and an idle resident record still holds an event-pool slot.
  EventHandle slice_timer_;
  std::uint64_t context_switches_ = 0;
  std::uint64_t preemptions_ = 0;
};

class CfsScheduler : public Snapshottable {
 public:
  CfsScheduler(Simulator& sim, int num_cores, CfsParams params = {});
  CfsScheduler(const CfsScheduler&) = delete;
  CfsScheduler& operator=(const CfsScheduler&) = delete;

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Core& core(int i);

  /// Registers a thread. `pinned_core` >= 0 pins it; -1 lets the scheduler
  /// place it on the least-loaded core at each wakeup. The thread starts
  /// blocked; call `thread->wake()` to make it runnable.
  void add(SimThread& thread, int pinned_core = -1);

  const CfsParams& params() const { return params_; }
  Simulator& sim() { return sim_; }

  /// Total context switches across all cores.
  std::uint64_t context_switches() const;

  /// Registers per-core telemetry probes (labels core=<id>): runnable
  /// counts, context switches, wakeup preemptions.
  void register_metrics(MetricsRegistry& registry);

  /// Serializes the scheduler RNG plus per-core runqueue state: the
  /// running thread, vruntime floor, and every enqueued thread's
  /// (name, vruntime, cpu_time) in runqueue order. Threads are keyed by
  /// world-local name (SimThread ids are process-global).
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  friend class SimThread;

  // SimThread-facing hooks.
  void on_wake(SimThread& thread);
  void on_block(SimThread& thread);
  void on_finish(SimThread& thread);

  // Internals.
  void enqueue(Core& core, SimThread& thread, bool wakeup);
  void dequeue(Core& core, SimThread& thread);
  void request_resched(Core& core);
  void do_resched(Core& core);
  void switch_out_current(Core& core, bool requeue);
  void account_current(Core& core);
  void update_min_vruntime(Core& core);
  void arm_slice_timer(Core& core);
  SimDuration timeslice(const Core& core) const;
  Core& pick_core_for(SimThread& thread);
  void check_wakeup_preemption(Core& core, SimThread& woken);

  Simulator& sim_;
  CfsParams params_;
  Rng rng_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::size_t registered_ = 0;  // threads ever add()ed
};

}  // namespace es2
