// Experiment testbed builder (paper §VI-A).
//
// Reconstructs the paper's setup: two x86 servers back-to-back over 40GbE;
// the VM server has 8 cores (HT off) running KVM. Two canonical
// topologies:
//
//  * micro  — one 1-vCPU VM on a dedicated core, its vhost worker on
//    another core (quota selection, exit-rate experiments);
//  * macro  — four 4-vCPU VMs time-sharing cores 0..3 (vCPU j of every VM
//    pinned to core j, forcing vCPU stacking), a four-thread CPU-burn in
//    every VM, the tested VM's vhost worker on core 4.
//
// The testbed owns the whole object graph; experiments add workload tasks.
#pragma once

#include <memory>
#include <vector>

#include "apps/burn.h"
#include "es2/es2.h"
#include "fault/fault.h"
#include "fault/recovery.h"
#include "guest/guest_os.h"
#include "guest/virtio_net.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "net/link.h"
#include "net/peer.h"
#include "sim/invariant_auditor.h"
#include "snapshot/state_hash.h"
#include "trace/trace.h"
#include "virtio/vhost.h"
#include "vm/vm.h"

namespace es2 {

/// The three passive observers of a run: on-vs-off leaves golden outputs
/// bit-identical. `TestbedOptions` and every runner's options inherit
/// this, so one base assignment carries all three through the harness.
struct ObserveOptions {
  /// Event-path tracing. `trace.enabled` builds a Tracer and attaches it
  /// to the simulator. Off by default: no records, one null test per hook.
  TraceOptions trace;
  /// Unified telemetry. Instruments register across every layer either
  /// way; `metrics.enabled` (the default) additionally runs a
  /// MetricsSampler on a deterministic in-sim cadence.
  MetricsOptions metrics;
  /// Epoch state-hashing. `snapshot.hash_epochs` arms a periodic FNV
  /// digest of every registered component (the determinism oracle behind
  /// `tools/divergence_bisect`).
  SnapshotOptions snapshot;
};

struct TestbedOptions : ObserveOptions {
  Es2Config config;
  std::uint64_t seed = 1;
  int host_cores = 8;
  int num_vms = 1;
  int vcpus_per_vm = 1;
  /// true: vCPU j of every VM pins to core j (macro oversubscription);
  /// false: VM v's vCPU j pins to core v*vcpus+j (dedicated cores).
  bool stack_vms = false;
  /// Core for the tested VM's vhost worker.
  int vhost_core = 4;
  /// Add one lowest-priority burn task per vCPU in every VM.
  bool cpu_burn = true;
  CostModel costs;
  GuestParams guest_params;
  VhostNetParams vhost_params;
  /// Vhost worker service discipline. kNotify is the stock kick/sleep
  /// path; kAlwaysPoll spins on the rings exit-lessly (SPDK-style);
  /// kAdaptive polls for `adaptive_poll_budget` after the last completed
  /// work, then re-arms notifications and sleeps.
  PollMode poll_mode = PollMode::kNotify;
  /// Spin re-check cadence while the rings are empty in a polling mode.
  SimDuration poll_interval = usec(2);
  /// kAdaptive only: how long past the last work the worker keeps spinning.
  SimDuration adaptive_poll_budget = usec(50);
  /// Seeded fault plan. All-zero (the default) builds no injector at all,
  /// so healthy runs draw zero fault RNG numbers and stay bit-identical.
  FaultPlan faults;
  /// Run the invariant auditor over the tested VM's event path.
  bool audit = false;
  SimDuration audit_period = msec(1);
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulator& sim() { return *sim_; }
  KvmHost& host() { return *host_; }
  Es2System& es2() { return *es2_; }
  const TestbedOptions& options() const { return options_; }

  /// The tested VM is always VM 0 (the only one with a network device).
  Vm& tested_vm() { return host_->vm(0); }
  GuestOs& guest(int vm = 0) { return *guests_[static_cast<size_t>(vm)]; }
  VhostNetBackend& backend() { return *backend_; }
  VirtioNetFrontend& frontend() { return *frontend_; }
  PeerHost& peer() { return *peer_; }
  VhostWorker& vhost_worker() { return *worker_; }
  Link& vm_to_peer() { return link_->a_to_b; }
  Link& peer_to_vm() { return link_->b_to_a; }

  /// Null when the fault plan is empty / auditing is off.
  FaultInjector* faults() { return faults_.get(); }
  InvariantAuditor* auditor() { return auditor_.get(); }
  /// Recovery ledger (lifecycle fault drills and overload-mitigation
  /// livelock episodes both report here); null unless the fault plan arms
  /// a lifecycle mode or guest_params.overload_mitigation is set.
  RecoveryLog* recovery_log() { return recovery_log_.get(); }
  /// Null unless options.trace.enabled.
  Tracer* tracer() { return tracer_.get(); }

  /// The unified registry; every layer's instruments live here.
  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }
  /// Null unless options.metrics.enabled; started by start().
  MetricsSampler* sampler() { return sampler_.get(); }

  /// The world snapshot registry: every stateful component under a stable
  /// name, in construction order. Workloads append themselves when they
  /// attach (before start(), so epoch hashes and snapshots cover them).
  WorldSnapshotter& snapshotter() { return snapshotter_; }
  const WorldSnapshotter& snapshotter() const { return snapshotter_; }
  /// Null unless options.snapshot.hash_epochs; created by start() (after
  /// workloads have registered, so the component set is complete).
  EpochHashLog* hash_log() { return hash_log_.get(); }

  /// Starts every VM (vCPUs + guest timers).
  void start();

 private:
  void register_all_metrics();

  TestbedOptions options_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<KvmHost> host_;
  std::unique_ptr<Es2System> es2_;
  std::vector<std::unique_ptr<GuestOs>> guests_;
  std::unique_ptr<DuplexLink> link_;
  std::unique_ptr<PeerHost> peer_;
  std::unique_ptr<VhostWorker> worker_;
  std::unique_ptr<VhostNetBackend> backend_;
  std::unique_ptr<VirtioNetFrontend> frontend_;
  std::vector<std::unique_ptr<CpuBurnTask>> burn_tasks_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<RecoveryLog> recovery_log_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::unique_ptr<Tracer> tracer_;
  WorldSnapshotter snapshotter_;
  std::unique_ptr<EpochHashLog> hash_log_;
  std::unique_ptr<PeriodicTimer> hash_timer_;
  // Last: the sampler references both the registry and the simulator, so
  // it must be torn down first.
  MetricsRegistry registry_;
  std::unique_ptr<MetricsSampler> sampler_;
};

}  // namespace es2
