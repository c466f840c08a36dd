// Guest virtio-net front-end driver with NAPI.
//
// The driver side of the paravirtual device: transmit enqueues segments
// into the TX virtqueue and kicks only when the suppression protocol says
// so (this is the guest half of the paper's hybrid scheme — the guest is
// *unmodified*; only the host-written suppression fields change behaviour).
// Receive follows Linux NAPI: hardirq -> napi_schedule (device interrupts
// off) -> softirq poll loop (budgeted) -> re-enable interrupts when drained.
// A full TX ring stops the queue and arms TX-completion interrupts,
// producing real backpressure.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "guest/guest_params.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "virtio/vhost.h"
#include "vm/vm.h"

namespace es2 {

class GuestOs;
class GuestTask;
class MetricsRegistry;

class VirtioNetFrontend {
 public:
  VirtioNetFrontend(GuestOs& os, VhostNetBackend& backend);
  ~VirtioNetFrontend();
  VirtioNetFrontend(const VirtioNetFrontend&) = delete;
  VirtioNetFrontend& operator=(const VirtioNetFrontend&) = delete;

  /// True if this driver owns the given interrupt vector.
  bool owns_vector(Vector v) const;

  /// Hardirq entry for this device (called from GuestOs::take_interrupt);
  /// runs hardirq -> EOI -> NAPI softirq, then Vcpu::irq_done().
  void handle_irq(Vcpu& vcpu, Vector vector);

  /// Transmits one segment from task/softirq context. `done(sent)` is
  /// called with sent=false when the TX ring is full (queue stopped); the
  /// caller should block and retry after `wake()`.
  void transmit(Vcpu& vcpu, PacketPtr packet,
                Callback<void(bool sent)> done);

  /// Registers a task to wake when TX descriptors free up after a stop.
  void add_tx_waiter(GuestTask& task);

  /// Guest netdev watchdog (Linux dev_watchdog analogue), called from the
  /// timer tick in guest context. If the TX queue looks wedged — posted
  /// descriptors, no completion progress across two consecutive ticks, and
  /// the host sleeping with notifications armed (i.e. it expects a kick
  /// that evidently never arrived) — re-kicks the backend. It also checks
  /// the RX side for a missed interrupt (used entries parked with
  /// interrupts armed and no NAPI pass running, two ticks in a row) and
  /// runs the NAPI poll the lost MSI would have started, the way e1000's
  /// watchdog recovers missed interrupts. Calls `done` exactly once; on
  /// healthy paths it is a pure state check.
  void tx_watchdog_tick(Vcpu& vcpu, Callback<void()> done);

  /// Guest halves of the recovery ladder (GuestParams::recovery_ladder):
  /// queue resets and full device resets initiated by the driver.
  std::int64_t ladder_queue_resets() const { return ladder_queue_resets_; }
  std::int64_t ladder_device_resets() const { return ladder_device_resets_; }

  // --- overload: receive-livelock detector + admission ladder ---------------
  /// Current admission-ladder rung: 0 none, 1 NAPI budget clamp (polling
  /// defers to the ksoftirqd task), 2 adds backend RX backpressure at the
  /// link, 3 adds SYN-cookie-style accept shedding (applied by the app,
  /// which reads this). Always 0 unless GuestParams::overload_mitigation.
  int overload_rung() const { return overload_rung_; }
  /// Highest rung reached over the run (collapse-severity telemetry).
  int overload_max_rung() const { return overload_max_rung_; }
  /// Livelock episodes detected (rung 0 -> 1 transitions).
  std::int64_t livelock_detections() const { return livelock_detections_; }
  /// NAPI passes whose budget exhausted at rung >= 1 and handed the ring to
  /// ksoftirqd instead of refreshing the budget in softirq context.
  std::int64_t ksoftirqd_defers() const { return ksoftirqd_defers_; }
  /// Packets polled in ksoftirqd task context (fair-shared with app tasks).
  std::int64_t ksoftirqd_polls() const { return ksoftirqd_polls_; }

  std::int64_t tx_queue_stops() const { return tx_stops_; }
  std::int64_t rx_polled() const { return rx_polled_; }
  std::int64_t kicks() const { return kicks_; }
  /// Times the TX watchdog fired a recovery re-kick.
  std::int64_t tx_watchdog_kicks() const { return tx_watchdog_kicks_; }
  /// Times the watchdog ran a NAPI poll to recover a missed RX interrupt.
  std::int64_t rx_watchdog_polls() const { return rx_watchdog_polls_; }

  VhostNetBackend& backend() { return backend_; }

  /// Registers driver telemetry — kicks, NAPI polls, queue stops, watchdog
  /// recoveries (label vm=<name>) — plus the per-cause watchdog and ladder
  /// counters when the device's lifecycle self-check is armed, and the
  /// overload detector/ladder counters when overload mitigation is.
  void register_metrics(MetricsRegistry& registry);

  /// Serializes NAPI scheduling state, the TX/RX watchdog counters, the
  /// recovery-ladder state and the overload detector/ladder state, every
  /// queue pair alike. Embedded in the owning GuestOs's snapshot section.
  void snapshot_state(SnapshotWriter& w) const;

 private:
  /// Status-register bring-up shared by the constructor and the device-
  /// reset rung: ACKNOWLEDGE -> DRIVER -> feature ack -> FEATURES_OK ->
  /// queue enable. DRIVER_OK is written by the caller once rings are set
  /// up.
  void negotiate();
  /// Recovery-ladder stage of the watchdog tick (no-op unless
  /// GuestParams::recovery_ladder and DEVICE_NEEDS_RESET).
  void ladder_stage(Vcpu& vcpu, Callback<void()> done);
  void guest_reset_queue(Vcpu& vcpu, int q, Callback<void()> done);
  void guest_reset_device(Vcpu& vcpu, Callback<void()> done);
  /// Watchdog halves for one queue pair; chains to the next pair.
  void watchdog_pair(Vcpu& vcpu, int pair, Callback<void()> done);
  /// Chains refill_rx across pairs [pair, N).
  void refill_all_rx(Vcpu& vcpu, int pair, Callback<void()> done);
  void wake_tx_waiters();
  void napi_poll(Vcpu& vcpu, int pair, Callback<void()> done);
  void napi_poll_one(Vcpu& vcpu, int pair, int budget_left,
                     Callback<void()> done);
  void finish_poll(Vcpu& vcpu, int pair, Callback<void()> done);
  /// Frees completed TX descriptors; wakes stopped-queue waiters.
  void reclaim_tx(Vcpu& vcpu, int pair, Callback<void()> done);
  void refill_rx(Vcpu& vcpu, int pair, Callback<void()> done);

  // --- overload internals ---------------------------------------------------
  class KsoftirqdTask;
  /// Detector sample, run from the watchdog tick (any vCPU's timer): storm
  /// poll work with a flat app-progress counter escalates the ladder; calm
  /// healthy samples de-escalate it. Pure state bookkeeping, no cycles.
  void overload_tick(Vcpu& vcpu);
  void overload_escalate(Vcpu& vcpu);
  void overload_deescalate();
  /// Marks `pair` pending for ksoftirqd and wakes the task; the caller
  /// completes its own `done` continuation afterwards (ends the softirq
  /// pass).
  void ksoftirqd_defer(Vcpu& vcpu, int pair);
  /// One ksoftirqd scheduling turn: polls a clamped batch off one pending
  /// pair, then yields so app tasks interleave.
  void ksoftirqd_unit(Vcpu& vcpu);
  void ksoftirqd_poll(Vcpu& vcpu, int pair, int budget_left);
  /// Pass epilogue in task context: refill, re-enable interrupts, handle
  /// the completion race (which re-queues the pair instead of re-polling).
  void ksoftirqd_finish(Vcpu& vcpu, int pair);

  GuestOs& os_;
  VhostNetBackend& backend_;
  // Per-queue-pair NAPI/watchdog state (index = pair).
  std::vector<bool> napi_scheduled_;
  std::vector<GuestTask*> tx_waiters_;
  std::vector<GuestTask*> waking_;  // wake_tx_waiters' reused swap buffer
  std::int64_t tx_stops_ = 0;
  std::int64_t rx_polled_ = 0;
  std::int64_t kicks_ = 0;
  // TX watchdog state: completion count at the last tick plus a strike
  // counter — a re-kick needs the stall to persist across two ticks, so a
  // kick legitimately in flight at sampling time never trips it.
  std::vector<std::int64_t> watchdog_last_used_;
  std::vector<int> watchdog_strikes_;
  std::int64_t tx_watchdog_kicks_ = 0;
  std::vector<std::int64_t> rx_watchdog_last_polled_;
  std::vector<int> rx_watchdog_strikes_;
  std::int64_t rx_watchdog_polls_ = 0;
  // Per-pair NAPI consumption counters (rx_polled_ stays the aggregate
  // telemetry; the per-pair values feed each pair's RX watchdog).
  std::vector<std::int64_t> rx_polled_by_pair_;
  // Stall flags sampled at the top of each watchdog tick (members, not
  // locals, to keep the tick allocation-free).
  std::vector<char> watchdog_tx_stalled_;
  std::vector<char> watchdog_rx_stalled_;
  // Recovery-ladder state: queue resets performed per flat queue index
  // within the current DEVICE_NEEDS_RESET episode (decays once the device
  // reports healthy).
  std::vector<int> ladder_recent_;
  std::int64_t ladder_queue_resets_ = 0;
  std::int64_t ladder_device_resets_ = 0;
  // Overload state. The task exists only when
  // GuestParams::overload_mitigation is set: it joins the guest's task
  // list, and with it the round-robin schedule.
  std::unique_ptr<GuestTask> ksoftirqd_;
  std::vector<char> ksoftirqd_pending_;
  int overload_rung_ = 0;
  int overload_max_rung_ = 0;
  int overload_strikes_ = 0;
  int overload_clear_ = 0;
  bool overload_episode_open_ = false;  // RecoveryLog instance awaiting progress
  std::int64_t overload_last_polls_ = 0;
  std::int64_t overload_last_progress_ = 0;
  std::int64_t livelock_detections_ = 0;
  std::int64_t ksoftirqd_defers_ = 0;
  std::int64_t ksoftirqd_polls_ = 0;
};

}  // namespace es2
