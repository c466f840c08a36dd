// vhost-net back-end: I/O worker thread, per-virtqueue handlers, device.
//
// Mirrors the structure the paper patches (§V-A): one in-kernel I/O thread
// (`VhostWorker`) schedules per-virtqueue handlers. A handler is normally
// asleep in *notification mode* — the guest's kick (an IO_INSTRUCTION VM
// exit) activates it. The handler services its queue in turns; the
// `quota` parameter implements the paper's Algorithm 1:
//
//   * an activated handler disables guest notifications and polls;
//   * if it drains `quota` requests before the queue empties, the load is
//     high: it re-queues itself *with notifications still disabled* —
//     this is the non-exit polling mode;
//   * if the queue empties first, the load is low: it re-enables
//     notifications (with the standard vhost re-check race handling) and
//     goes back to sleep — notification mode.
//
// Standard vhost behaviour is the degenerate case quota = vhost weight
// (large): turns practically always end by draining the queue, so the
// handler sleeps and every fresh request kicks. The ES2 Hybrid I/O
// Handling component (src/es2) simply installs a small quota.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/ring.h"
#include "base/rng.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "virtio/virtqueue.h"
#include "vm/cost_model.h"
#include "vm/vm.h"

namespace es2 {

class FaultInjector;
class MetricsRegistry;
class RecoveryLog;
class VhostWorker;

/// One schedulable unit of back-end work (a virtqueue handler).
class VqHandler {
 public:
  explicit VqHandler(std::string name) : name_(std::move(name)) {}
  virtual ~VqHandler() = default;

  /// Runs one turn on the worker thread; must invoke `done(requeue)`
  /// exactly once (possibly after several exec segments).
  virtual void service(VhostWorker& worker,
                       Callback<void(bool requeue)> done) = 0;

  const std::string& name() const { return name_; }
  /// True while queued (or running) on the worker; the backend lifecycle
  /// self-check uses it to tell "parked" from "scheduled".
  bool queued() const { return queued_; }
  /// Flat queue index for profiler/blame labels (2*pair for TX handlers,
  /// 2*pair+1 for RX); -1 when the handler is not a net queue.
  int profile_queue() const { return profile_queue_; }

 protected:
  int profile_queue_ = -1;

 private:
  friend class VhostWorker;
  std::string name_;
  bool queued_ = false;
  SimTime ready_at_ = 0;  // earliest re-service time after a quota yield
};

/// The vhost I/O thread: round-robins activated handlers.
class VhostWorker : public Snapshottable {
 public:
  /// Cycles consumed by the worker loop per handler dispatch (dequeue,
  /// bookkeeping, switching between handlers).
  static constexpr Cycles kLoopOverhead = 900;

  /// A busy-poll work source (one per attached device). `check` scans the
  /// device's avail rings and activates handlers with pending work,
  /// returning true if it activated anything. `rearm` re-enables guest
  /// notifications before the adaptive worker goes to sleep, returning
  /// true if work raced in during the re-enable (the standard vhost
  /// re-check, hoisted to the worker's sleep edge).
  struct PollSource {
    std::function<bool()> check;
    std::function<bool()> rearm;
  };

  /// `requeue_delay` is the latency until a handler that yielded at its
  /// quota gets its next turn (Algorithm 1 line 16: "descheduled and waits
  /// for its next turn"): cond_resched + worker round-robin + re-reads.
  /// While waiting with no other work the worker spins (polling burns its
  /// core — exactly the cost the paper's quota bounds). This latency is
  /// what lets a small quota keep pace with the guest — arrivals during
  /// the wait refill the queue — i.e. what makes polling mode sticky
  /// under high load.
  ///
  /// Waking the sleeping worker from a guest kick (eventfd signal ->
  /// scheduler -> cache-cold dispatch) is usually fast
  /// (`wakeup_latency_fast`), but host scheduling noise — softirqs, timer
  /// ticks, runqueue contention — occasionally stretches it to tens of
  /// microseconds (`wakeup_latency_slow`, probability `slow_wakeup_prob`).
  /// The backlog that builds during a slow wakeup is what gives
  /// Algorithm 1 a chance to reach its quota on the first turn and
  /// bootstrap into polling mode; once bootstrapped, ring backpressure
  /// keeps the queue non-empty and polling persists.
  VhostWorker(KvmHost& host, std::string name, int pinned_core,
              SimDuration requeue_delay = usec(20),
              SimDuration wakeup_latency_fast = usec(2),
              SimDuration wakeup_latency_slow = usec(40),
              double slow_wakeup_prob = 0.06);
  VhostWorker(const VhostWorker&) = delete;
  VhostWorker& operator=(const VhostWorker&) = delete;

  /// Queues a handler for service (idempotent) and wakes the thread.
  void activate(VqHandler& handler);

  /// Switches the worker's idle discipline (default kNotify: sleep on
  /// kicks). kAlwaysPoll spins on the registered poll sources forever —
  /// the exit-less SPDK-style backend; kAdaptive spins for
  /// `adaptive_budget` after the last dispatched work, then re-arms
  /// notifications and sleeps. `poll_interval` is the simulated cost of
  /// one fruitless scan of every source (ring reads + relax pause).
  void set_poll_mode(PollMode mode, SimDuration poll_interval,
                     SimDuration adaptive_budget);
  PollMode poll_mode() const { return poll_mode_; }
  void add_poll_source(PollSource source) {
    poll_sources_.push_back(std::move(source));
  }

  /// Fruitless spin iterations / spins that found and activated work.
  std::int64_t poll_spins() const { return poll_spins_; }
  std::int64_t poll_harvests() const { return poll_harvests_; }

  /// Runs `cycles` of host work on the worker thread, then `done`
  /// (handler helper).
  void exec(Cycles cycles, Callback<void()> done);

  KvmHost& host() { return host_; }
  SimThread& thread() { return thread_; }
  std::uint64_t turns() const { return turns_; }
  /// High-water mark of the activation queue. `activate` is idempotent
  /// (guarded by VqHandler::queued_), so the work list is bounded by the
  /// number of distinct handlers ever attached — this figure makes that
  /// bound observable, and the overload tests assert it stays small under
  /// a connection storm.
  std::size_t active_high_water() const { return active_high_water_; }
  /// Sleep->run transitions (eventfd wakeups); turns without a wakeup ran
  /// in polling mode.
  std::uint64_t wakeups() const { return wakeups_; }
  SimDuration requeue_delay() const { return requeue_delay_; }

  /// Fault injection: the worker dies (its activation queue is lost and
  /// kicks fall on deaf ears) and comes back after `restart_delay`. The
  /// crash takes effect at the next dispatch boundary — an in-flight
  /// handler turn finishes its current descriptor first, which keeps the
  /// model deterministic without mid-exec teardown. Recovery of the
  /// orphaned queues is the backend self-check's job (it re-activates
  /// handlers once the worker is back).
  void crash_and_restart(SimDuration restart_delay);
  bool crashed() const { return crashed_; }
  std::int64_t crashes() const { return crashes_; }
  std::int64_t restarts() const { return restarts_; }

  /// Registers worker telemetry probes (label worker=<thread name>). The
  /// poll counters join only in a polling mode, the crash/restart counters
  /// only when the attached fault plan arms lifecycle faults.
  void register_metrics(MetricsRegistry& registry);

  /// Attaches a fault injector (random dispatch stalls). Null (the
  /// default) keeps the worker stall-free.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Serializes the worker RNG, the active-handler queue (names in
  /// round-robin order), the thread's scheduling state, the busy-poll
  /// state and the crash/restart state.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void main_loop();

  KvmHost& host_;
  FaultInjector* faults_ = nullptr;
  SimThread thread_;
  SimDuration requeue_delay_;
  SimDuration wakeup_fast_;
  SimDuration wakeup_slow_;
  double slow_wakeup_prob_;
  Rng rng_;
  bool was_sleeping_ = true;
  std::vector<VqHandler*> active_;
  std::size_t active_high_water_ = 0;
  std::uint64_t turns_ = 0;
  std::uint64_t wakeups_ = 0;
  // Busy-poll state (inert in the default kNotify mode).
  PollMode poll_mode_ = PollMode::kNotify;
  SimDuration poll_interval_ = 0;
  SimDuration adaptive_budget_ = 0;
  std::vector<PollSource> poll_sources_;
  SimTime last_work_ = 0;
  std::int64_t poll_spins_ = 0;
  std::int64_t poll_harvests_ = 0;
  // Lifecycle state.
  bool crashed_ = false;
  std::int64_t crashes_ = 0;
  std::int64_t restarts_ = 0;
  EventHandle restart_;
};

/// Per-packet back-end cost knobs (host-side processing).
struct VhostNetParams {
  int vq_capacity = 256;
  /// TX: tap sendmsg through the host bridge + NIC driver.
  Cycles tx_per_packet = 6400;
  /// RX: copy from the socket into guest receive buffers.
  Cycles rx_per_packet = 6500;
  /// Copy cost per payload byte (both directions).
  double cycles_per_byte = 0.75;
  /// Multiplicative per-packet cost jitter (uniform +/- fraction).
  double cost_jitter = 0.08;
  /// Max entries one TX/RX turn may process in notification mode — the
  /// vhost weight; Algorithm 1's quota replaces it when smaller.
  int weight = 256;
  /// Host-side socket buffer (packets) for ingress traffic.
  int sock_buffer = 4096;
  /// RX-backpressure shedding ratio when the guest's overload ladder
  /// reaches rung 2: the ingress link keeps 1 in `backpressure_keep`
  /// packets and sheds the rest before serialization. Inert until
  /// set_rx_backpressure(true), which needs set_rx_link first.
  int backpressure_keep = 4;
  /// When a fault injector is attached: how often the RX path re-checks
  /// for guest buffers after going to sleep waiting on a refill kick that
  /// may have been swallowed. Irrelevant (and never armed) without faults.
  SimDuration rx_repoll_period = usec(100);
  /// Lifecycle self-check cadence (host-side watchdog): a queue with
  /// pending work, an idle handler and no progress for one period gets a
  /// re-activation (the vhost re-poll rung); a second fruitless period
  /// declares the handler wedged and flags DEVICE_NEEDS_RESET. Armed only
  /// via arm_lifecycle_selfcheck (lifecycle fault scenarios).
  SimDuration lifecycle_selfcheck_period = usec(250);
  /// virtio-net queue pairs (VIRTIO_NET_F_MQ when > 1). Ingress flows are
  /// RSS-steered to a pair by 5-tuple hash; each pair has its own TX/RX
  /// rings, handlers, socket buffer and MSI vectors.
  int num_queue_pairs = 1;
  /// Virtqueue memory layout for every queue (VIRTIO_F_RING_PACKED when
  /// packed). Observable transfer semantics are layout-independent — the
  /// ring-conformance suite enforces that.
  RingLayout ring_layout = RingLayout::kSplit;
};

/// vhost-net device instance for one VM: TX + RX virtqueues, their
/// handlers, the MSI identities, and the wire hookup.
class VhostNetBackend : public Snapshottable {
 public:
  VhostNetBackend(Vm& vm, VhostWorker& worker, Link& tx_link,
                  VhostNetParams params = {});
  ~VhostNetBackend();  // out of line: handler types are private/incomplete
  VhostNetBackend(const VhostNetBackend&) = delete;
  VhostNetBackend& operator=(const VhostNetBackend&) = delete;

  Vm& vm() { return vm_; }
  const VhostNetParams& params() const { return params_; }

  // --- multi-queue (VIRTIO_NET_F_MQ) ---------------------------------------
  // Every queue pair, pair 0 included, is one entry of `pairs_`
  // (params.num_queue_pairs of them; > 1 negotiates VIRTIO_NET_F_MQ). Flat
  // queue indices interleave pairs: q = 2*pair + direction (0 = TX, 1 = RX).

  int num_queue_pairs() const { return params_.num_queue_pairs; }
  int num_queues() const { return 2 * params_.num_queue_pairs; }
  Virtqueue& tx_vq(int pair) { return pair_at(pair).tx_vq; }
  Virtqueue& rx_vq(int pair) { return pair_at(pair).rx_vq; }
  /// Steers an ingress flow to a queue pair (RSS by 5-tuple hash).
  int steer_pair(Proto proto, std::uint64_t flow) const;

  /// The paper's poll_quota module parameter: turns the TX/RX handlers
  /// into Algorithm 1 hybrid handlers. Values <= 0 restore standard vhost
  /// (quota = weight).
  void set_poll_quota(int quota);
  int poll_quota() const { return poll_quota_; }

  /// MSI messages a queue pair raises (guest affinity encoded in dest).
  const MsiMessage& tx_msi(int pair) const { return pair_at(pair).tx_msi; }
  const MsiMessage& rx_msi(int pair) const { return pair_at(pair).rx_msi; }

  /// Optional MSI interception for related-work baselines (interrupt
  /// coalescing): return false to swallow the interrupt — the filter
  /// becomes responsible for raising it later via `raise_msi_now`.
  using MsiFilter = std::function<bool(const MsiMessage&)>;
  void set_msi_filter(MsiFilter filter) { msi_filter_ = std::move(filter); }

  /// Raises an MSI immediately, bypassing the filter (used by coalescers
  /// when their batch/timeout fires).
  void raise_msi_now(const MsiMessage& msi);

  /// Attaches a fault injector (kick loss/delay, MSI drops). Null (the
  /// default) keeps the event path perfect.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // --- device lifecycle (virtio 1.1 status register) -----------------------
  // The backend boots pre-negotiated (status DRIVER_OK, all offered
  // features acked) so directly-constructed test rings keep working; the
  // frontend's constructor immediately performs the real negotiation
  // sequence through write_status/ack_features.

  /// Installs this device as a poll source on its worker and, for
  /// kAlwaysPoll, permanently disables guest notifications on every queue
  /// (the exit-less dataplane: the guest never executes a kick). Call
  /// after VhostWorker::set_poll_mode; kNotify is a no-op.
  void set_poll_mode(PollMode mode);
  PollMode poll_mode() const { return poll_mode_; }

  std::uint8_t device_status() const { return status_; }
  /// Guest status-register write. 0 performs a full device reset: both
  /// rings reset, queues disabled, wedges and quarantines cleared,
  /// negotiated features dropped. Setting DRIVER_OK completes (re-)
  /// negotiation. MSI identities and the ES2 poll quota survive (host
  /// module state the driver re-programs identically).
  void write_status(std::uint8_t status);
  std::uint64_t features_offered() const {
    std::uint64_t f = kFeatureMrgRxBuf | kFeatureEventIdx | kFeatureVersion1;
    if (params_.ring_layout == RingLayout::kPacked) f |= kFeatureRingPacked;
    if (params_.num_queue_pairs > 1) f |= kFeatureMq;
    return f;
  }
  /// Driver feature ack before FEATURES_OK; false if not a subset of the
  /// offer (the write is ignored).
  bool ack_features(std::uint64_t features);
  std::uint64_t features_acked() const { return features_acked_; }
  bool driver_ok() const { return (status_ & kStatusDriverOk) != 0; }
  bool needs_reset() const {
    return (status_ & kStatusDeviceNeedsReset) != 0;
  }

  /// Queues by flat index (2*pair + direction; 0 = TX0, 1 = RX0) and
  /// per-queue enable.
  Virtqueue& queue(int q) { return q % 2 == 0 ? tx_vq(q / 2) : rx_vq(q / 2); }
  void enable_queue(int q, bool on) { queue(q).set_enabled(on); }

  /// Device-side single-queue reset: drains/clears the ring (stale
  /// in-flight completions are dropped by the reset-epoch guard), clears
  /// the queue's wedge and quarantine, recomputes DEVICE_NEEDS_RESET, and
  /// leaves the queue enabled again.
  void reset_queue(int q);

  /// Arms the host-side lifecycle watchdog (see
  /// VhostNetParams::lifecycle_selfcheck_period). Called by the harness
  /// only when lifecycle faults are armed: healthy worlds schedule no
  /// extra events.
  void arm_lifecycle_selfcheck();
  bool lifecycle_selfcheck_armed() const { return selfcheck_armed_; }

  /// Recovery ledger (owned by the harness); null keeps every hook inert.
  void set_recovery_log(RecoveryLog* log) { recovery_log_ = log; }
  RecoveryLog* recovery_log() { return recovery_log_; }

  /// Invoked after every full device reset (write_status(0)) — the ES2
  /// redirector re-primes its per-VM steering state here.
  void set_reset_listener(std::function<void()> listener) {
    reset_listener_ = std::move(listener);
  }

  // --- lifecycle fault injection (FaultInjector hooks) ---------------------
  /// Ring corruption, rotating deterministically through out-of-range /
  /// duplicate-head / used-overrun and alternating TX/RX.
  void inject_ring_corruption();
  /// Torn avail-idx write, alternating TX/RX.
  void inject_avail_tear();
  /// Wedges a handler (alternating TX/RX): it keeps consuming activations
  /// without servicing until a queue/device reset clears it.
  void inject_handler_wedge();
  /// Crashes the worker (restarting after `restart_delay`) and opens a
  /// worker-scope fault instance.
  void inject_worker_crash(SimDuration restart_delay);

  std::int64_t ring_faults_detected() const { return ring_faults_detected_; }
  std::int64_t kicks_ignored() const { return kicks_ignored_; }
  /// Lifecycle self-check re-activations (the vhost re-poll rung).
  std::int64_t selfcheck_repolls() const { return selfcheck_repolls_; }
  std::int64_t queue_resets() const { return queue_resets_; }
  std::int64_t device_resets() const { return device_resets_; }
  std::int64_t renegotiations() const { return renegotiations_; }

  // --- guest-facing (ioeventfd side of the kick) -------------------------
  void notify_tx(int pair);
  void notify_rx(int pair);

  // --- wire-facing --------------------------------------------------------
  void receive_from_wire(PacketPtr packet);

  /// Binds the ingress link feeding receive_from_wire so the guest's
  /// overload ladder (rung 2) can push backpressure all the way to the
  /// NIC. Null (the default) makes set_rx_backpressure a no-op.
  void set_rx_link(Link* link) { rx_link_ = link; }
  /// Engages/releases deterministic 1-in-N admission at the ingress link
  /// (N = VhostNetParams::backpressure_keep).
  void set_rx_backpressure(bool on);
  bool rx_backpressure() const { return rx_backpressure_; }

  std::int64_t rx_dropped() const { return rx_dropped_; }
  /// Times the RX re-poll safety net recovered from a (presumed lost)
  /// refill kick; stays 0 without a fault injector.
  std::int64_t rx_repolls() const { return rx_repolls_; }
  /// Packets moved, summed over every queue pair.
  std::int64_t tx_packets() const;
  std::int64_t rx_packets() const;
  std::int64_t tx_irqs() const { return tx_irqs_; }
  std::int64_t rx_irqs() const { return rx_irqs_; }
  /// Turns that ended by re-entering notification mode (queue drained
  /// before the quota filled) vs. by hitting the quota (stay polling).
  std::int64_t tx_mode_reverts() const { return tx_reverts_; }
  std::int64_t tx_quota_hits() const { return tx_quota_hits_; }

  /// Registers backend telemetry — per-direction packet/IRQ counts, mode
  /// transitions, drops — plus every virtqueue's probes (label vm=<name>).
  /// The lifecycle counters join once the self-check is armed.
  void register_metrics(MetricsRegistry& registry);

  /// Serializes every queue pair (rings, socket buffer, packet counters),
  /// the cost-jitter RNG, every lifetime counter and the device lifecycle
  /// state (status, features, wedges, self-check and injection rotation).
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  class TxHandler;
  class RxHandler;
  friend class TxHandler;
  friend class RxHandler;

  /// Rings, handlers, host socket buffer, MSI identities and progress
  /// counters of one queue pair.
  struct QueuePair {
    QueuePair(VhostNetBackend& backend, int pair);

    Virtqueue tx_vq;
    Virtqueue rx_vq;
    std::unique_ptr<TxHandler> tx_handler;
    std::unique_ptr<RxHandler> rx_handler;
    Ring<PacketPtr> sock_buf;
    MsiMessage tx_msi;
    MsiMessage rx_msi;
    std::int64_t tx_packets = 0;
    std::int64_t rx_packets = 0;
  };
  QueuePair& pair_at(int pair) {
    return pairs_[static_cast<std::size_t>(pair)];
  }
  const QueuePair& pair_at(int pair) const {
    return pairs_[static_cast<std::size_t>(pair)];
  }

  Cycles tx_cost(const Virtqueue::Entry& e);
  Cycles rx_cost(const PacketPtr& p);
  Cycles jittered(Cycles c);
  void raise_msi(const MsiMessage& msi);
  /// Schedules the RX missed-kick re-poll (only with faults attached).
  void arm_rx_repoll();
  int effective_quota() const {
    return poll_quota_ > 0 ? poll_quota_ : params_.weight;
  }
  /// Handler turn gate: false parks the turn (wedged / disabled /
  /// quarantined queue), running the integrity check on the way in and
  /// quarantining on a fresh fault.
  bool pre_service(int q);
  /// Quarantines queue `q` with fault `f` and flags DEVICE_NEEDS_RESET.
  void on_ring_fault(int q, RingFault f);
  /// Opens a recovery-ledger instance (+ fault_inject trace journey) for
  /// one injected lifecycle fault.
  void open_fault(LifecycleFault mode, int scope);
  /// Completion-side recovery-ledger hook (closes matching instances).
  void note_progress(int scope);
  /// Device operational for queue `q`: driver ready, queue enabled, not
  /// quarantined. The kick path and the busy-poll scan share it.
  bool queue_operational(int q);
  /// True if a kick/activation for queue `q` should be swallowed because
  /// the device is not operational for it.
  bool kick_blocked(int q);
  void lifecycle_selfcheck_tick();
  VqHandler& handler_of(int q);
  std::int64_t progress_counter(int q) const {
    return q % 2 == 0 ? pair_at(q / 2).tx_packets : pair_at(q / 2).rx_packets;
  }
  /// Busy-poll scan: activates every handler with pending work.
  bool poll_check();
  /// Adaptive sleep edge: re-arm notifications, report races.
  bool poll_rearm();

  Vm& vm_;
  VhostWorker& worker_;
  Link& tx_link_;
  Link* rx_link_ = nullptr;
  bool rx_backpressure_ = false;
  VhostNetParams params_;
  FaultInjector* faults_ = nullptr;
  EventHandle rx_repoll_;
  int poll_quota_ = 0;
  PollMode poll_mode_ = PollMode::kNotify;
  std::vector<QueuePair> pairs_;  // built once, never resized
  MsiFilter msi_filter_;
  Rng rng_;
  std::int64_t rx_dropped_ = 0;
  std::int64_t rx_repolls_ = 0;
  std::int64_t tx_irqs_ = 0;
  std::int64_t rx_irqs_ = 0;
  std::int64_t tx_reverts_ = 0;
  std::int64_t tx_quota_hits_ = 0;
  // Trace correlation registers: the journey id of the latest TX kick /
  // RX wire arrival, carried into worker turns and MSI raises. Written
  // only by the trace hooks, which run when a Tracer is attached; inert
  // otherwise.
  std::uint64_t tx_kick_corr_ = 0;
  std::uint64_t rx_kick_corr_ = 0;

  // Lifecycle state. Boots pre-negotiated for directly-constructed test
  // rings; the frontend renegotiates from scratch in its constructor.
  std::uint8_t status_ = kStatusAcknowledge | kStatusDriver |
                         kStatusFeaturesOk | kStatusDriverOk;
  std::uint64_t features_acked_ = kFeatureMrgRxBuf | kFeatureEventIdx |
                                  kFeatureVersion1;
  std::vector<bool> wedged_;  // one per flat queue index
  RecoveryLog* recovery_log_ = nullptr;
  std::function<void()> reset_listener_;
  EventHandle selfcheck_;
  bool selfcheck_armed_ = false;
  std::vector<int> selfcheck_strikes_;
  std::vector<std::int64_t> selfcheck_last_progress_;
  int corrupt_seq_ = 0;
  int tear_seq_ = 0;
  int wedge_seq_ = 0;
  std::int64_t ring_faults_detected_ = 0;
  std::int64_t kicks_ignored_ = 0;
  std::int64_t selfcheck_repolls_ = 0;
  std::int64_t queue_resets_ = 0;
  std::int64_t device_resets_ = 0;
  std::int64_t renegotiations_ = 0;
  // Correlation id of the open lifecycle fault per scope (tx/rx/worker);
  // reset/renegotiate spans reuse it so one journey covers inject ->
  // detect -> reset -> recover.
  std::uint64_t fault_corr_[3] = {0, 0, 0};
};

}  // namespace es2
