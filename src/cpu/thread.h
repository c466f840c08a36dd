// Preemptible simulated threads.
//
// A `SimThread` models one schedulable host entity (a vCPU thread, a vhost
// I/O thread, …). Components drive a thread by submitting *work segments*:
// `exec(duration, done)` consumes `duration` of CPU time once the thread is
// running, then invokes `done` in thread context. Segments are transparently
// frozen/thawed across CFS preemptions, so component code never sees a
// preemption — exactly like a real thread does not.
//
// Threads with no active segment fall back to their `main` body when
// scheduled; `main` must leave the thread either with a pending segment or
// blocked (enforced by ES2_CHECK), which rules out silent busy states.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/units.h"
#include "sim/callback.h"
#include "sim/simulator.h"

namespace es2 {

class CfsScheduler;
class Core;

/// A paused work segment (used by the vCPU layer to nest interrupt handler
/// work inside an interrupted guest segment).
struct PausedSegment {
  SimDuration remaining = 0;
  Callback<void()> done;
};

/// CFS load weights (subset of the kernel's prio_to_weight table).
inline constexpr int kWeightNice0 = 1024;
inline constexpr int kWeightNice19 = 15;  // "lowest-priority" burn scripts
inline constexpr int kWeightNice5 = 335;

class SimThread {
 public:
  enum class State { kBlocked, kRunnable, kRunning, kFinished };

  /// Preemption notifier, mirroring kvm_sched_in / kvm_sched_out:
  /// invoked with sched_in=true right before the thread starts running on a
  /// core, and sched_in=false right after it is descheduled.
  using Notifier = std::function<void(SimThread&, bool sched_in)>;

  SimThread(Simulator& sim, std::string name, int weight = kWeightNice0);
  ~SimThread();
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  // --- component-facing API -------------------------------------------

  /// Body invoked whenever the thread is scheduled with no active segment.
  void set_main(std::function<void()> main) { main_ = std::move(main); }

  /// Submits a work segment. Legal in any non-finished, non-blocked state;
  /// at most one active segment at a time.
  void exec(SimDuration duration, Callback<void()> done);

  /// Removes and returns the active segment with its remaining time
  /// (nested-interrupt support). Returns nullopt if no segment is active.
  std::optional<PausedSegment> suspend_active();

  /// Reinstates a previously suspended segment as the active one.
  void resume_segment(PausedSegment segment);

  /// Gives up the CPU until wake(). Must be called from thread context with
  /// no active segment.
  void block();

  /// Makes a blocked thread runnable (no-op otherwise). Safe from any
  /// context; the scheduler decides placement at the next resched point.
  void wake();

  /// Marks the thread permanently finished (test teardown convenience).
  void finish();

  // --- introspection ----------------------------------------------------

  State state() const { return state_; }
  bool running() const { return state_ == State::kRunning; }
  bool has_active_segment() const { return active_.has_value(); }
  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  int weight() const { return weight_; }
  Core* core() const { return core_; }
  double vruntime() const { return vruntime_; }

  void add_notifier(Notifier notifier) {
    notifiers_.push_back(std::move(notifier));
  }

  /// Total CPU time this thread has consumed.
  SimDuration cpu_time() const;

  /// Serializes scheduling state (es2-snap-v2 fields): state, weight,
  /// vruntime, consumed CPU time and the active segment's remaining work.
  /// Owners embed this in their own snapshot section.
  void snapshot_state(SnapshotWriter& w) const;

  Simulator& sim() { return sim_; }

 private:
  friend class CfsScheduler;
  friend class Core;

  struct ActiveSegment {
    SimDuration remaining = 0;
    Callback<void()> done;
    EventHandle completion;   // armed only while running
    SimTime armed_at = 0;
    bool armed = false;
  };

  // Scheduler-side hooks.
  void sched_in(Core& core);
  void sched_out();
  void arm_segment();
  void freeze_segment();
  void on_segment_complete();
  void notify(bool sched_in);

  Simulator& sim_;
  std::string name_;
  std::uint64_t id_;
  int weight_;
  State state_ = State::kBlocked;
  std::optional<ActiveSegment> active_;
  std::function<void()> main_;
  std::vector<Notifier> notifiers_;

  // Managed by CfsScheduler.
  CfsScheduler* sched_ = nullptr;
  Core* core_ = nullptr;       // core currently running on (if kRunning)
  int pinned_core_ = -1;       // -1: migratable
  double vruntime_ = 0.0;      // relative to rq min_vruntime while dequeued
  SimTime last_ran_start_ = 0;
  SimDuration cpu_time_ = 0;
  int rq_core_ = -1;           // runqueue the thread is enqueued on
};

}  // namespace es2
