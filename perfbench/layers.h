// Per-layer numbers for the traced run: work counts harvested from each
// cell's MetricsRegistry, host-cost calibrations from timed calls into each
// layer's public functions, and the attribution that joins the two.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "vm/exit.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Host cost of one call into a layer's public function, measured in
/// isolation: median ns over batches, heap allocations per call.
struct Calibration {
  double sim_ns_per_schedule_fire = 0;  // Simulator::at + run_until
  double sim_ns_per_cancel = 0;         // Simulator::at + EventHandle::cancel
  double cpu_ns_per_exec_segment = 0;   // SimThread::exec under CfsScheduler
  double cpu_allocs_per_exec_segment = 0;
  double apic_ns_per_pi_cycle = 0;     // VApicPage post/sync/deliver/eoi
  double apic_ns_per_lapic_cycle = 0;  // EmulatedLapic post/service/eoi
  double virtio_ns_per_add_pop_used = 0;  // one Virtqueue round trip
  double virtio_allocs_per_add_pop_used = 0;
  double net_ns_per_make_packet = 0;
  double net_allocs_per_make_packet = 0;
  double net_ns_per_link_send = 0;       // Link::transmit + delivery event
  double es2_ns_per_select_target = 0;   // InterruptRedirector::select_target
  double snapshot_ns_per_world_hash = 0;  // WorldSnapshotter::component_hashes
  double metrics_ns_per_harvest = 0;      // harvest_metrics
  double harness_ns_per_testbed_build_micro = 0;  // Testbed(...) + start()
  double harness_ns_per_testbed_build_macro = 0;
};

/// Runs every calibration. `on_layer(name, start_ns, end_ns)` receives one
/// span per layer calibrated, on the benchmark's clock.
Calibration calibrate(
    const std::function<void(const std::string&, double, double)>& on_layer);

/// Sums the registry counts of the cells of one pass.
class LayerTally {
 public:
  void add(const Cell& cell, const CellOutcome& outcome);

  /// The per-layer metrics, in a fixed order and with fixed names on every
  /// workload. `host_ns` is the measured runner CPU time of the same
  /// cells; the attribution shares divide by it.
  std::vector<Metric> metrics(const Calibration& cal, double host_ns) const;

  double fired() const { return fired_; }

  /// Counts that must read exactly zero on fault-free workloads.
  double fault_injected() const { return fault_injected_; }
  double recovery_injected() const { return recovery_injected_; }
  double snapshot_epochs() const { return epochs_; }
  double audit_sweeps() const { return audit_sweeps_; }

 private:
  double fired_ = 0;
  double scheduled_ = 0;
  double cancelled_ = 0;
  double boxed_ = 0;
  double peak_live_ = 0;
  double near_hits_ = 0;
  double wheel_hits_ = 0;
  double far_hits_ = 0;
  double context_switches_ = 0;
  double preemptions_ = 0;
  std::array<double, es2::kNumExitReasons> exits_{};
  double irqs_ = 0;
  double lapic_posts_ = 0;
  double pi_posts_ = 0;
  double eois_ = 0;
  double vq_added_ = 0;
  double notify_enables_ = 0;
  double turns_ = 0;
  double wakeups_ = 0;
  double vhost_packets_ = 0;
  double poll_spins_ = 0;
  double poll_harvests_ = 0;
  double kicks_ = 0;
  double rx_polled_ = 0;
  double ksoftirqd_polls_ = 0;
  double link_packets_ = 0;
  double drops_ = 0;
  double app_ops_ = 0;
  double quota_hits_ = 0;
  double mode_reverts_ = 0;
  double redirected_msis_ = 0;
  double fault_injected_ = 0;
  double recovery_injected_ = 0;
  double recovery_recovered_ = 0;
  double audit_sweeps_ = 0;
  double epochs_ = 0;
  double cells_ = 0;
  double micro_cells_ = 0;
  double macro_cells_ = 0;
};

}  // namespace perfbench
