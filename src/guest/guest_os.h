// Guest operating system model (unmodified Linux as far as ES2 is
// concerned — nothing in src/es2 reaches behind this interface).
//
// Implements the `GuestCpu` contract: a tiny two-priority task scheduler
// per vCPU (normal tasks + "lowest-priority CPU burn" tasks, matching the
// paper's test setup), IDT-style interrupt routing (device vectors to
// their driver, timer/IPI vectors to stub handlers), a flow demux that
// hands received packets to protocol sinks, and idle/HLT handling.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "guest/guest_params.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "vm/guest_cpu.h"
#include "vm/vm.h"

namespace es2 {

class GuestOs;
class MetricsRegistry;
class VirtioNetFrontend;

/// A guest-level schedulable task (netperf thread, server worker, burn
/// script). Tasks execute one *work unit* per scheduling turn by chaining
/// Vcpu::guest_exec calls, then return control via GuestOs::task_done().
class GuestTask {
 public:
  GuestTask(GuestOs& os, std::string name, int vcpu_affinity,
            bool low_priority = false);
  virtual ~GuestTask() = default;

  /// Performs one work unit in guest context on `vcpu`; must synchronously
  /// start guest activity and eventually call os().task_done(vcpu) or
  /// block_self() + task_done path.
  virtual void run_unit(Vcpu& vcpu) = 0;

  const std::string& name() const { return name_; }
  int vcpu_affinity() const { return vcpu_affinity_; }
  bool low_priority() const { return low_priority_; }
  bool runnable() const { return runnable_; }

  /// Marks the task runnable; sends a guest resched IPI if its vCPU idles.
  void wake();

  /// Marks the task not runnable (takes effect when its unit completes).
  void block_self() { runnable_ = false; }

  GuestOs& os() { return os_; }
  const GuestOs& os() const { return os_; }

 private:
  GuestOs& os_;
  std::string name_;
  int vcpu_affinity_;
  bool low_priority_;
  bool runnable_ = true;
};

/// Receives packets demultiplexed by flow id in NAPI (softirq) context.
class FlowSink {
 public:
  virtual ~FlowSink() = default;
  /// Handles one packet; must call `done` exactly once (possibly after
  /// guest_exec work on `vcpu`).
  virtual void on_packet(Vcpu& vcpu, const PacketPtr& packet,
                         Callback<void()> done) = 0;
};

class GuestOs final : public GuestCpu, public Snapshottable {
 public:
  GuestOs(Vm& vm, GuestParams params = {});
  ~GuestOs() override;
  GuestOs(const GuestOs&) = delete;
  GuestOs& operator=(const GuestOs&) = delete;

  Vm& vm() { return vm_; }
  const GuestParams& params() const { return params_; }

  /// Applies the configured cost jitter to a work-unit cost.
  Cycles jittered(Cycles cost);

  // --- GuestCpu interface -------------------------------------------------
  void run(int vcpu_index) override;
  void take_interrupt(int vcpu_index, Vector vector) override;

  // --- configuration -------------------------------------------------------
  /// Registers a task; ownership stays with the caller.
  void add_task(GuestTask& task);

  /// Binds a virtio-net device driver (registered by its IRQ vectors).
  void attach_netdev(VirtioNetFrontend& dev);

  /// Routes packets with `flow` to `sink` (guest protocol endpoint).
  void register_flow(std::uint64_t flow, FlowSink& sink);
  void unregister_flow(std::uint64_t flow);

  // --- task-facing ----------------------------------------------------------
  /// A task's work unit finished; the guest scheduler picks what's next.
  void task_done(Vcpu& vcpu);

  /// The default netdev for transmit (first attached).
  VirtioNetFrontend& netdev();

  // --- driver-facing ----------------------------------------------------------
  /// Delivers a received packet to its flow sink (NAPI context).
  void deliver_to_stack(Vcpu& vcpu, const PacketPtr& packet,
                        Callback<void()> done);

  /// True if `vcpu_index`'s logical CPU sits halted in the idle loop.
  bool cpu_idle(int vcpu_index) const;

  std::int64_t packets_to_unknown_flows() const { return unknown_flow_; }

  // --- application progress (overload detection) ----------------------------
  /// Apps call this from task context when they complete application-level
  /// work (an accept, a served page, a memcached response). The receive-
  /// livelock detector keys off this figure: sustained poll work with a
  /// flat app-progress counter IS livelock. Pure integer bookkeeping — no
  /// events, no cycles — so reporting progress never perturbs schedules.
  void note_app_progress() { ++app_progress_; }
  std::int64_t app_progress() const { return app_progress_; }

  /// Registers kernel-level telemetry — flow demux misses (label
  /// vm=<name>) — plus each attached netdev's driver probes.
  void register_metrics(MetricsRegistry& registry);

  /// Serializes the guest kernel: jitter RNG, per-vCPU scheduler cursors,
  /// task runnability, the registered flow set (sorted) and every attached
  /// netdev driver's NAPI/watchdog state.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  GuestTask* pick_task(int vcpu_index);
  void wake_vcpu_for_task(const GuestTask& task);
  /// Timer-tick tail: runs each netdev's TX watchdog, then EOIs.
  void netdev_watchdog_tick(Vcpu& vcpu, std::size_t i);
  friend class GuestTask;

  Vm& vm_;
  GuestParams params_;
  Rng rng_;
  std::vector<GuestTask*> tasks_;
  std::vector<std::uint64_t> rr_cursor_;      // per-vCPU round-robin cursor
  std::vector<VirtioNetFrontend*> netdevs_;
  std::unordered_map<std::uint64_t, FlowSink*> flows_;
  std::int64_t unknown_flow_ = 0;
  std::int64_t app_progress_ = 0;
};

}  // namespace es2
