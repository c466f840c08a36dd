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
//
// Each queue pair's driver state is one `PairState` record. The softirq
// poll and the ksoftirqd task poll share one per-packet RX step and one
// interrupt re-arm epilogue.
#pragma once

#include <array>
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
  bool owns_vector(Vector v) const { return pair_of_vector(v) >= 0; }

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
  /// The queue pair owning interrupt vector `v`, or -1.
  int pair_of_vector(Vector v) const;
  void napi_poll(Vcpu& vcpu, int pair, Callback<void()> done);
  void napi_poll_one(Vcpu& vcpu, int pair, int budget_left,
                     Callback<void()> done);
  void finish_poll(Vcpu& vcpu, int pair, Callback<void()> done);
  /// One RX packet in softirq or ksoftirqd (`in_task`) context: pops the
  /// pair's next used entry (there must be one) into the stack, then `next`.
  void rx_step(Vcpu& vcpu, int pair, bool in_task, Callback<void()> next);
  /// napi_complete's interrupt re-arm (RX, and TX completions while senders
  /// wait); false, RX left off, if packets completed in the window.
  bool rearm_interrupts(int pair);
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

  /// Driver state of one queue pair.
  struct PairState {
    bool napi_scheduled = false;
    // TX watchdog: completion count at the last tick plus a strike
    // counter — a re-kick needs the stall to persist across two ticks, so
    // a kick legitimately in flight at sampling time never trips it.
    std::int64_t watchdog_last_used = 0;
    int watchdog_strikes = 0;
    // RX watchdog: the same debounce over `rx_polled`, the packets NAPI
    // took off this pair (rx_polled_ is the device-wide total).
    std::int64_t rx_polled = 0;
    std::int64_t rx_watchdog_last_polled = 0;
    int rx_watchdog_strikes = 0;
    bool tx_stalled = false;  // stall flags sampled at watchdog tick entry
    bool rx_stalled = false;
    // Queue resets per direction (kScopeTx / kScopeRx) within the current
    // DEVICE_NEEDS_RESET episode; decays once the device reports healthy.
    std::array<int, 2> ladder_recent{};
    bool ksoftirqd_pending = false;  // handed to the ksoftirqd task
  };
  PairState& state(int pair) { return pairs_[static_cast<std::size_t>(pair)]; }

  GuestOs& os_;
  VhostNetBackend& backend_;
  std::vector<PairState> pairs_;  // index = queue pair; never resized
  std::vector<GuestTask*> tx_waiters_;
  std::vector<GuestTask*> waking_;  // wake_tx_waiters' reused swap buffer
  std::int64_t tx_stops_ = 0;
  std::int64_t rx_polled_ = 0;
  std::int64_t kicks_ = 0;
  std::int64_t tx_watchdog_kicks_ = 0;
  std::int64_t rx_watchdog_polls_ = 0;
  std::int64_t ladder_queue_resets_ = 0;
  std::int64_t ladder_device_resets_ = 0;
  // Overload state. The task exists only when
  // GuestParams::overload_mitigation is set: it joins the guest's task
  // list, and with it the round-robin schedule.
  std::unique_ptr<GuestTask> ksoftirqd_;
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
