// Seeded fault injection for the virtual I/O event path.
//
// Everything the paper measures assumes the plumbing works; this layer lets
// scenarios break it on purpose — lossy cables, swallowed eventfd kicks,
// dropped MSIs, a stalling vhost worker, spurious interrupts — while
// staying deterministic. The injector draws from its own named RNG stream
// (`fault`), so two runs with the same seed and the same `FaultPlan`
// misbehave identically, and a run whose plan is all-off constructs no
// injector at all: components hold a null `FaultInjector*`, consume no
// random numbers and schedule no events, leaving golden outputs
// bit-identical.
//
// Injection points live in the components (net::Link, VhostNetBackend,
// VhostWorker); this file only decides *whether* and *how hard* each fault
// fires. Recovery from the injected faults is the modeled stack's problem:
// the guest TX watchdog, the peer's TCP retransmit machinery, and the vhost
// RX re-poll are exercised, not bypassed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "apic/vectors.h"
#include "base/rng.h"
#include "base/units.h"
#include "sim/simulator.h"

namespace es2 {

class MetricsRegistry;

/// Gilbert–Elliott two-state burst-loss model: the link flips between a
/// `good` and a `bad` state per packet; each state has its own loss
/// probability. Captures correlated loss (a flaky transceiver, a congested
/// switch port) that i.i.d. loss cannot.
struct GilbertElliott {
  double p_good_to_bad = 0;  // per-packet transition probability
  double p_bad_to_good = 0.2;
  double loss_good = 0;      // loss probability while good
  double loss_bad = 0.5;     // loss probability while bad

  bool enabled() const { return p_good_to_bad > 0; }
};

/// Per-scenario fault configuration. Default-constructed == all off.
struct FaultPlan {
  // --- wire faults (apply per unidirectional net::Link) -------------------
  double link_loss = 0;        // i.i.d. drop probability per packet
  GilbertElliott link_burst;   // burst loss, composed with link_loss
  double link_reorder = 0;     // probability a packet is held back
  SimDuration link_reorder_delay = usec(50);  // mean extra delay when held
  double link_duplicate = 0;   // probability a packet is delivered twice

  // --- event-path faults ---------------------------------------------------
  double kick_loss = 0;        // eventfd kick swallowed (never reaches vhost)
  double kick_delay_prob = 0;  // kick arrives late instead of immediately
  SimDuration kick_delay = usec(25);
  double msi_loss = 0;         // device MSI dropped before the IRQ router
  double worker_stall_prob = 0;  // vhost worker preempted mid-loop
  SimDuration worker_stall = usec(200);  // mean stall (exponential)
  /// > 0: a spurious (unowned) device-range interrupt is delivered to the
  /// tested VM with this period.
  SimDuration spurious_irq_period = 0;

  // --- virtio lifecycle faults ---------------------------------------------
  // Period-based (not probabilistic): each armed mode fires on its own
  // deterministic PeriodicTimer and draws no RNG, so fault-instance counts
  // are exact for MTTR accounting and arming a new mode never shifts the
  // shared `fault` stream the probabilistic modes consume.
  /// > 0: corrupt ring state with this period, rotating deterministically
  /// through descriptor-out-of-range, duplicate in-flight head and
  /// used-ring overrun, alternating TX/RX.
  SimDuration desc_corrupt_period = 0;
  /// > 0: torn avail-idx write (index jumps beyond the ring size).
  SimDuration avail_tear_period = 0;
  /// > 0: wedge a backend handler — it keeps eating activations without
  /// making progress until a queue/device reset clears it.
  SimDuration handler_wedge_period = 0;
  /// > 0: crash the vhost worker (queued activations lost), restarting it
  /// after `worker_restart_delay`.
  SimDuration worker_crash_period = 0;
  SimDuration worker_restart_delay = usec(500);

  bool lifecycle_enabled() const {
    return desc_corrupt_period > 0 || avail_tear_period > 0 ||
           handler_wedge_period > 0 || worker_crash_period > 0;
  }

  bool enabled() const {
    return link_loss > 0 || link_burst.enabled() || link_reorder > 0 ||
           link_duplicate > 0 || kick_loss > 0 || kick_delay_prob > 0 ||
           msi_loss > 0 || worker_stall_prob > 0 || spurious_irq_period > 0 ||
           lifecycle_enabled();
  }
};

/// Counts of faults actually fired (not configured rates).
struct FaultStats {
  std::int64_t link_dropped = 0;
  std::int64_t link_reordered = 0;
  std::int64_t link_duplicated = 0;
  std::int64_t kicks_dropped = 0;
  std::int64_t kicks_delayed = 0;
  std::int64_t msis_dropped = 0;
  std::int64_t worker_stalls = 0;
  std::int64_t spurious_irqs = 0;
  std::int64_t desc_corruptions = 0;
  std::int64_t avail_tears = 0;
  std::int64_t handler_wedges = 0;
  std::int64_t worker_crashes = 0;
};

/// Injection entry points for the lifecycle fault modes, provided by the
/// harness (the injector cannot depend on the virtio layer). Each fires
/// one fault instance; target rotation lives behind the callback.
struct LifecycleHooks {
  std::function<void()> corrupt_ring;   // desc_corrupt_period
  std::function<void()> tear_avail;     // avail_tear_period
  std::function<void()> wedge_handler;  // handler_wedge_period
  std::function<void()> crash_worker;   // worker_crash_period
};

/// The vector used for injected spurious interrupts: top of the device
/// range, unclaimed by any modeled device driver.
inline constexpr Vector kSpuriousFaultVector = 0xEB;

class FaultInjector : public Snapshottable {
 public:
  enum class KickFate { kDeliver, kDrop, kDelay };

  FaultInjector(Simulator& sim, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // --- wire (net::Link) ----------------------------------------------------
  /// Decides the fate of one packet about to be transmitted; advances the
  /// Gilbert–Elliott chain.
  bool drop_packet();
  bool duplicate_packet();
  /// Extra delivery delay for reordering; 0 means deliver in order.
  SimDuration reorder_extra_delay();

  // --- event path ----------------------------------------------------------
  KickFate kick_fate();
  SimDuration kick_delay() const { return plan_.kick_delay; }
  bool drop_msi();
  /// Extra time the vhost worker loses on this dispatch; 0 = no stall.
  SimDuration worker_stall();

  /// Arms the periodic spurious-interrupt source; `fire` delivers
  /// kSpuriousFaultVector into the victim VM.
  void start_spurious(std::function<void()> fire);

  /// Arms one PeriodicTimer per enabled lifecycle mode. The periods are
  /// plan-configured and RNG-free, so same-seed runs inject identically
  /// and modes compose without perturbing each other.
  void start_lifecycle(LifecycleHooks hooks);
  void stop_lifecycle();

  /// Registers the fired-fault counters as probes.
  void register_metrics(MetricsRegistry& registry);

  /// Serializes the fault RNG, the Gilbert–Elliott chain state and every
  /// fired-fault counter.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  Simulator& sim_;
  FaultPlan plan_;
  FaultStats stats_;
  Rng rng_;
  bool burst_bad_ = false;  // Gilbert–Elliott state
  std::unique_ptr<PeriodicTimer> spurious_timer_;
  std::vector<std::unique_ptr<PeriodicTimer>> lifecycle_timers_;
};

}  // namespace es2
