#include "virtio/vhost.h"

#include <algorithm>

#include "base/assert.h"
#include "base/strings.h"
#include "fault/fault.h"
#include "fault/recovery.h"
#include "metrics/metrics.h"
#include "trace/trace.h"

namespace es2 {

namespace {
int worker_core(VhostWorker& worker) {
  return worker.thread().core() != nullptr ? worker.thread().core()->id() : -1;
}

/// Queue and handler names: bare for pair 0 ("vm0/txq", "vm0/tx"),
/// numbered beyond it ("vm0/txq1", "vm0/tx1"). Metric labels and the
/// worker's snapshot carry them.
std::string pair_name(const Vm& vm, const char* base, int pair) {
  return pair == 0 ? vm.name() + "/" + base
                   : vm.name() + format("/%s%d", base, pair);
}
// Name bases per direction (index = kScopeTx / kScopeRx).
constexpr const char* kRingBase[2] = {"txq", "rxq"};
constexpr const char* kHandlerBase[2] = {"tx", "rx"};
}  // namespace

// ---------------------------------------------------------------------------
// VhostWorker
// ---------------------------------------------------------------------------

VhostWorker::VhostWorker(KvmHost& host, std::string name, int pinned_core,
                         SimDuration requeue_delay,
                         SimDuration wakeup_latency_fast,
                         SimDuration wakeup_latency_slow,
                         double slow_wakeup_prob)
    : host_(host),
      thread_(host.sim(), std::move(name)),
      requeue_delay_(requeue_delay),
      wakeup_fast_(wakeup_latency_fast),
      wakeup_slow_(wakeup_latency_slow),
      slow_wakeup_prob_(slow_wakeup_prob),
      rng_(host.sim().make_rng("vhost-worker/" + thread_.name())) {
  thread_.set_main([this] { main_loop(); });
  host_.sched().add(thread_, pinned_core);
}

void VhostWorker::activate(VqHandler& handler) {
  if (crashed_) return;  // a dead worker's eventfd wakes nobody
  if (handler.queued_) return;
  handler.queued_ = true;
  active_.push_back(&handler);
  active_high_water_ = std::max(active_high_water_, active_.size());
  if (Tracer* tr = host_.sim().tracer()) {
    tr->emit(host_.sim().now(), TraceKind::kWorkerWake, -1, -1,
             worker_core(*this));
  }
  thread_.wake();
}

void VhostWorker::exec(Cycles cycles, Callback<void()> done) {
  thread_.exec(host_.costs().ns(cycles), std::move(done));
}

void VhostWorker::crash_and_restart(SimDuration restart_delay) {
  if (crashed_) return;
  ++crashes_;
  crashed_ = true;
  // The activation queue dies with the worker process; in-flight exec
  // segments finish their current descriptor first (crash takes effect at
  // the next dispatch boundary).
  for (VqHandler* h : active_) h->queued_ = false;
  active_.clear();
  if (Tracer* tr = host_.sim().tracer()) {
    tr->emit(host_.sim().now(), TraceKind::kWorkerCrash, -1, -1,
             worker_core(*this),
             static_cast<std::uint32_t>(restart_delay));
  }
  restart_ = host_.sim().after(restart_delay, [this] {
    crashed_ = false;
    ++restarts_;
    if (Tracer* tr = host_.sim().tracer()) {
      tr->emit(host_.sim().now(), TraceKind::kWorkerRestart, -1, -1,
               worker_core(*this));
    }
    // A notify-mode worker is re-woken by the next kick; a polling worker
    // has no kicks coming (notifications are disabled) and must resume
    // its spin loop itself.
    if (poll_mode_ != PollMode::kNotify) thread_.wake();
  });
}

void VhostWorker::set_poll_mode(PollMode mode, SimDuration poll_interval,
                                SimDuration adaptive_budget) {
  poll_mode_ = mode;
  poll_interval_ = poll_interval;
  adaptive_budget_ = adaptive_budget;
  // A polling worker cannot rely on a first kick to start its spin loop
  // (notifications may already be suppressed); enter it at t=0.
  if (mode != PollMode::kNotify) thread_.wake();
}

void VhostWorker::main_loop() {
  if (active_.empty()) {
    if (poll_mode_ != PollMode::kNotify && !crashed_ &&
        !poll_devices_.empty()) {
      // Busy-poll idle path: scan the avail rings instead of sleeping.
      bool found = false;
      for (VhostNetBackend* d : poll_devices_) {
        if (d->poll_check()) found = true;
      }
      if (found) {
        ++poll_harvests_;
        main_loop();  // dispatch what the scan activated
        return;
      }
      const SimTime now = host_.sim().now();
      if (poll_mode_ == PollMode::kAlwaysPoll ||
          now - last_work_ <= adaptive_budget_) {
        ++poll_spins_;
        thread_.exec(poll_interval_, [this] { main_loop(); });
        return;
      }
      // Adaptive budget exhausted: re-arm guest notifications (the sleep
      // edge owns the standard vhost re-check race) and go to sleep.
      bool raced = false;
      for (VhostNetBackend* d : poll_devices_) {
        if (d->poll_rearm()) raced = true;
      }
      if (raced) {
        main_loop();
        return;
      }
    }
    was_sleeping_ = true;
    thread_.block();
    return;
  }
  // Service the first handler that is already eligible; handlers sitting
  // out their quota-yield delay must not block others (the RX handler has
  // to keep draining ingress while the TX handler polls).
  const SimTime now = host_.sim().now();
  size_t pick = 0;
  bool found_ready = false;
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]->ready_at_ <= now) {
      pick = i;
      found_ready = true;
      break;
    }
  }
  if (!found_ready) {
    // All waiting: take the one ready soonest.
    for (size_t i = 1; i < active_.size(); ++i) {
      if (active_[i]->ready_at_ < active_[pick]->ready_at_) pick = i;
    }
  }
  VqHandler* handler = active_[pick];
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(pick));
  handler->queued_ = false;
  ++turns_;
  last_work_ = now;  // adaptive poll budget restarts at every dispatch
  // A handler that yielded at its quota is not eligible again until its
  // round-robin turn comes back; with no other work the worker spins until
  // then (busy polling consumes the core).
  SimDuration wait = handler->ready_at_ > now ? handler->ready_at_ - now : 0;
  if (was_sleeping_) {
    was_sleeping_ = false;
    ++wakeups_;
    if (rng_.bernoulli(slow_wakeup_prob_)) {
      // Slow path: the worker lost the scheduling race (host softirq,
      // timer tick, cache-cold migration). Exponential tail: rare wakeups
      // stretch to several times the mean.
      wait += static_cast<SimDuration>(
          rng_.exponential(static_cast<double>(wakeup_slow_)));
    } else {
      wait += static_cast<SimDuration>(
          rng_.uniform(wakeup_fast_ / 2, wakeup_fast_ * 3 / 2));
    }
  }
  if (faults_ != nullptr) {
    // Injected dispatch stall: the worker got preempted / hit a softirq
    // storm before reaching this handler.
    wait += faults_->worker_stall();
  }
  // One turn = dispatch wait + wakeup latency + the handler's service,
  // closed by the continuation below.
  thread_.exec(wait + host_.costs().ns(kLoopOverhead), [this, handler] {
    handler->service(*this, [this, handler](bool requeue) {
      if (requeue) {
        handler->ready_at_ = host_.sim().now() + requeue_delay_;
        activate(*handler);
      }
      main_loop();
    });
  });
}

// ---------------------------------------------------------------------------
// Queue handler — Algorithm 1 (quota = weight reproduces standard vhost)
// ---------------------------------------------------------------------------

/// The handler of one virtqueue. Every turn runs the same loop: trace the
/// turn, pass the lifecycle gate, disable guest notifications, then move
/// packets, completing each with the reset-epoch guard, the progress count
/// and an MSI unless suppression says no. A dry ring re-enables
/// notifications with the standard re-check race. The queue's direction
/// picks `take`, `land` and `dry`, each specialized once per direction.
template <int kDir>
class VhostNetBackend::QueueHandler final : public VqHandler {
 public:
  QueueHandler(VhostNetBackend& backend, int q)
      : VqHandler(pair_name(backend.vm(), kHandlerBase[kDir], q / 2)),
        backend_(backend),
        q_(q) {}

  void service(VhostWorker& worker,
               Callback<void(bool)> done) override {
    trace(worker, TraceKind::kWorkerTurn);
    // Lifecycle gate: a wedged/quarantined/disabled queue parks the turn
    // (and runs the ring-integrity check on the way in).
    if (!backend_.pre_service(q_)) {
      done(false);
      return;
    }
    // Algorithm 1 line 8-10: entering a turn disables guest notifications.
    Virtqueue& vq = backend_.queue(q_);
    if (vq.notifications_enabled()) {
      vq.disable_notifications();
      trace(worker, TraceKind::kNotifyDisable);
    }
    workload_ = 0;
    poll(worker, std::move(done));
  }

 private:
  /// What `take` found: the next packet (and its host cost), the turn's
  /// limit, nothing to do, or a dry ring.
  enum class Take { kPacket, kLimit, kIdle, kDry };
  Take take(PacketPtr& packet, Cycles& cost);
  /// Lands a packet whose copy finished; returns its used-ring entry.
  Virtqueue::Entry land(const PacketPtr& packet);
  /// The ring stayed dry with notifications back on.
  void dry();

  /// Emits a worker-side record for this queue on its latest journey.
  void trace(VhostWorker& worker, TraceKind kind) {
    if (Tracer* tr = worker.host().sim().tracer()) {
      tr->emit(worker.host().sim().now(), kind, -1, -1, worker_core(worker),
               static_cast<std::uint32_t>(q_), backend_.rec(q_).kick_corr);
    }
  }

  void poll(VhostWorker& worker, Callback<void(bool)> done) {
    Virtqueue& vq = backend_.queue(q_);
    PacketPtr packet;
    Cycles cost = 0;
    switch (take(packet, cost)) {
      case Take::kLimit:
        // High load: stay in polling mode, wait for the next turn
        // (Algorithm 1 line 15-17).
        done(true);
        return;
      case Take::kIdle:
        done(false);
        return;
      case Take::kDry:
        if (backend_.poll_mode() != PollMode::kNotify) {
          // Busy-poll backend: notifications never come back on; the
          // worker's poll scan re-activates this handler when work appears.
          done(false);
          return;
        }
        // Dry before the limit: the I/O load is low. Return to
        // notification mode (Algorithm 1 line 19-20), handling the
        // standard re-enable race.
        if (vq.enable_notifications()) {
          vq.disable_notifications();
          poll(worker, std::move(done));
          return;
        }
        trace(worker, TraceKind::kNotifyEnable);
        dry();
        done(false);
        return;
      case Take::kPacket:
        break;
    }
    const std::int64_t epoch = vq.reset_epoch();
    worker.exec(cost, [this, &worker, epoch, packet = std::move(packet),
                       done = std::move(done)]() mutable {
      Virtqueue& vq = backend_.queue(q_);
      if (vq.reset_epoch() != epoch) {
        // The queue was reset mid-flight: this turn's view of the ring is
        // stale and the descriptor is gone. The packet is dropped (the
        // sender's TCP retransmit recovers it).
        done(false);
        return;
      }
      Virtqueue::Entry used = land(packet);
      ++backend_.rec(q_).packets;
      vq.push_used(std::move(used));
      backend_.note_progress(kDir);
      if (vq.interrupt_needed()) {
        ++backend_.irqs_[kDir];
        backend_.raise_msi(q_);
      } else {
        trace(worker, TraceKind::kIrqSuppressed);
      }
      ++workload_;
      poll(worker, std::move(done));
    });
  }

  VhostNetBackend& backend_;
  const int q_;  // flat queue index (2 * pair + kDir)
  int workload_ = 0;
};

// TX: Algorithm 1's quota bounds the turn; the guest's descriptor is
// popped before the copy and the packet goes out on the wire after it.
template <>
auto VhostNetBackend::QueueHandler<kScopeTx>::take(PacketPtr& packet,
                                                   Cycles& cost) -> Take {
  if (workload_ >= backend_.effective_quota()) {
    ++backend_.tx_quota_hits_;
    return Take::kLimit;
  }
  auto entry = backend_.queue(q_).pop_avail();
  if (!entry) return Take::kDry;
  cost = backend_.copy_cost(backend_.params().tx_per_packet, entry->packet);
  packet = std::move(entry->packet);
  return Take::kPacket;
}

template <>
Virtqueue::Entry VhostNetBackend::QueueHandler<kScopeTx>::land(
    const PacketPtr& packet) {
  backend_.tx_link_.transmit(packet);
  return Virtqueue::Entry{nullptr, 0};
}

template <>
void VhostNetBackend::QueueHandler<kScopeTx>::dry() {
  ++backend_.tx_reverts_;
}

// RX: ingress draining is bounded by the vhost weight, NOT the ES2 quota
// (Algorithm 1 throttles guest *notifications*; wire traffic is not a
// guest I/O request). The packet comes off the socket buffer before the
// copy; the guest buffer it lands in is popped after it.
template <>
auto VhostNetBackend::QueueHandler<kScopeRx>::take(PacketPtr& packet,
                                                   Cycles& cost) -> Take {
  if (workload_ >= backend_.params().weight) return Take::kLimit;
  Ring<PacketPtr>& sock_buf = backend_.pair_at(q_ / 2).sock_buf;
  // No more ingress traffic. Refill notifications stay disabled — the
  // handler reactivates on wire arrivals, not guest kicks.
  if (sock_buf.empty()) return Take::kIdle;
  // Out of guest receive buffers: dry until the guest's refill kick.
  if (!backend_.queue(q_).has_avail()) return Take::kDry;
  packet = std::move(sock_buf.front());
  sock_buf.pop_front();
  cost = backend_.copy_cost(backend_.params().rx_per_packet, packet);
  return Take::kPacket;
}

template <>
Virtqueue::Entry VhostNetBackend::QueueHandler<kScopeRx>::land(
    const PacketPtr& packet) {
  auto buffer = backend_.queue(q_).pop_avail();
  ES2_CHECK(buffer.has_value());
  return Virtqueue::Entry{packet, packet->wire_size};
}

// Under fault injection the refill kick itself may be swallowed: schedule
// a re-poll so a lost kick degrades to latency, not a wedge.
template <>
void VhostNetBackend::QueueHandler<kScopeRx>::dry() {
  backend_.arm_rx_repoll();
}

// ---------------------------------------------------------------------------
// Queue records
// ---------------------------------------------------------------------------

VhostNetBackend::Queue::Queue(VhostNetBackend& backend, int q)
    : vq(pair_name(backend.vm(), kRingBase[q % 2], q / 2),
         backend.params().vq_capacity, backend.params().ring_layout) {
  // Each pair gets its own virtio-net MSI vectors (kFirstDeviceVector+1/+2
  // for pair 0, then +2 per pair) with guest affinity spread across vCPUs
  // — the standard irqbalance-style queue->vCPU mapping — and
  // lowest-priority delivery (Linux apic_flat default).
  msi = MsiMessage{static_cast<Vector>(kFirstDeviceVector + 1 + q),
                   (q / 2) % backend.vm().num_vcpus(),
                   DeliveryMode::kLowestPriority};
}

VhostNetBackend::QueuePair::QueuePair(VhostNetBackend& backend, int pair)
    : dir{Queue(backend, 2 * pair), Queue(backend, 2 * pair + 1)} {
  dir[kScopeTx].handler =
      std::make_unique<QueueHandler<kScopeTx>>(backend, 2 * pair);
  dir[kScopeRx].handler =
      std::make_unique<QueueHandler<kScopeRx>>(backend, 2 * pair + 1);
}

// ---------------------------------------------------------------------------
// VhostNetBackend
// ---------------------------------------------------------------------------

VhostNetBackend::VhostNetBackend(Vm& vm, VhostWorker& worker, Link& tx_link,
                                 VhostNetParams params)
    : vm_(vm),
      worker_(worker),
      tx_link_(tx_link),
      params_(params),
      rng_(vm.host().sim().make_rng("vhost/" + vm.name())) {
  ES2_CHECK_MSG(params_.num_queue_pairs >= 1,
                "vhost-net needs at least one queue pair");
  pairs_.reserve(static_cast<std::size_t>(num_queue_pairs()));
  for (int p = 0; p < num_queue_pairs(); ++p) pairs_.emplace_back(*this, p);
  // Boot pre-negotiated with everything on offer acked (packed/MQ bits
  // included when configured); the frontend renegotiates from scratch.
  features_acked_ = features_offered();
}

VhostNetBackend::~VhostNetBackend() = default;

void VhostNetBackend::set_poll_quota(int quota) { poll_quota_ = quota; }

std::int64_t VhostNetBackend::packets(int dir) const {
  std::int64_t total = 0;
  for (const QueuePair& p : pairs_) total += p.dir[dir].packets;
  return total;
}

int VhostNetBackend::steer_pair(Proto proto, std::uint64_t flow) const {
  if (params_.num_queue_pairs <= 1) return 0;
  return static_cast<int>(
      rss_hash(proto, flow) %
      static_cast<std::uint32_t>(params_.num_queue_pairs));
}

void VhostNetBackend::set_poll_mode(PollMode mode) {
  poll_mode_ = mode;
  if (mode == PollMode::kNotify) return;
  worker_.add_poll_device(*this);
  if (mode == PollMode::kAlwaysPoll) {
    // Exit-less dataplane: the guest never finds notifications enabled,
    // so kick_needed() is permanently false and no I/O exits happen.
    for (int q = 0; q < num_queues(); ++q) queue(q).disable_notifications();
  }
}

bool VhostNetBackend::has_work(int q) {
  return q % 2 == kScopeTx ? queue(q).has_avail()
                           : (!pair_at(q / 2).sock_buf.empty() &&
                              queue(q).has_avail());
}

bool VhostNetBackend::poll_check() {
  bool any = false;
  for (int q = 0; q < num_queues(); ++q) {
    Queue& r = rec(q);
    if (queue_operational(q) && !r.wedged && has_work(q) &&
        !r.handler->queued()) {
      worker_.activate(*r.handler);
      any = true;
    }
  }
  return any;
}

bool VhostNetBackend::poll_rearm() {
  bool raced = false;
  for (int p = 0; p < num_queue_pairs(); ++p) {
    if (!queue_operational(2 * p) && !queue_operational(2 * p + 1)) continue;
    QueuePair& qp = pair_at(p);
    Queue& tx = qp.dir[kScopeTx];
    if (tx.vq.enable_notifications()) {
      tx.vq.disable_notifications();
      worker_.activate(*tx.handler);
      raced = true;
    }
    // The RX handler is woken by wire arrivals, not guest kicks; the only
    // kick it ever needs is the buffer-refill one, and only while ingress
    // is actually stuck waiting on guest buffers.
    Queue& rx = qp.dir[kScopeRx];
    if (!qp.sock_buf.empty()) {
      if (rx.vq.has_avail() || rx.vq.enable_notifications()) {
        rx.vq.disable_notifications();
        worker_.activate(*rx.handler);
        raced = true;
      }
    }
  }
  return raced;
}

Cycles VhostNetBackend::jittered(Cycles c) {
  if (params_.cost_jitter <= 0) return c;
  const double f =
      1.0 + params_.cost_jitter * (2.0 * rng_.next_double() - 1.0);
  return static_cast<Cycles>(static_cast<double>(c) * f);
}

Cycles VhostNetBackend::copy_cost(Cycles per_packet, const PacketPtr& p) {
  const Bytes size = p ? p->wire_size : 0;
  return jittered(per_packet +
                  static_cast<Cycles>(params_.cycles_per_byte *
                                      static_cast<double>(size)));
}

void VhostNetBackend::raise_msi(int q) {
  const MsiMessage& msi = rec(q).msi;
  if (msi_filter_ && !msi_filter_(msi)) return;  // coalesced
  Tracer* tr = vm_.host().sim().tracer();
  std::uint64_t corr = rec(q).kick_corr;
  if (tr != nullptr && corr == 0) corr = tr->begin_journey();
  if (faults_ != nullptr && faults_->drop_msi()) {
    if (tr != nullptr) {
      tr->emit(vm_.host().sim().now(), TraceKind::kMsiDrop, vm_.id(), -1,
               worker_core(worker_), msi.vector, corr);
    }
    return;
  }
  deliver_msi(msi, corr);
}

void VhostNetBackend::raise_msi_now(const MsiMessage& msi) {
  Tracer* tr = vm_.host().sim().tracer();
  deliver_msi(msi, tr != nullptr ? tr->begin_journey() : 0);
}

void VhostNetBackend::deliver_msi(const MsiMessage& msi, std::uint64_t corr) {
  if (Tracer* tr = vm_.host().sim().tracer()) {
    tr->emit(vm_.host().sim().now(), TraceKind::kMsiRaise, vm_.id(), -1,
             worker_core(worker_), msi.vector, corr);
    // Hand the journey across the synchronous router -> vcpu delivery.
    tr->set_inflight(corr);
  }
  vm_.host().router().deliver_msi(vm_, msi);
}

void VhostNetBackend::kick(int q) {
  std::uint64_t corr = 0;
  if (Tracer* tr = vm_.host().sim().tracer()) {
    corr = tr->begin_journey();
    if (q % 2 == kScopeTx) rec(q).kick_corr = corr;
    tr->emit(vm_.host().sim().now(), TraceKind::kKick, vm_.id(), -1, -1,
             static_cast<std::uint32_t>(q), corr);
  }
  if (kick_blocked(q)) return;
  if (faults_ != nullptr) {
    switch (faults_->kick_fate()) {
      case FaultInjector::KickFate::kDrop:
        if (Tracer* tr = vm_.host().sim().tracer()) {
          tr->emit(vm_.host().sim().now(), TraceKind::kKickDrop, vm_.id(), -1,
                   -1, static_cast<std::uint32_t>(q), corr);
        }
        return;
      case FaultInjector::KickFate::kDelay:
        vm_.host().sim().after(faults_->kick_delay(), [this, q] {
          worker_.activate(*rec(q).handler);
        });
        return;
      case FaultInjector::KickFate::kDeliver:
        break;
    }
  }
  worker_.activate(*rec(q).handler);
}

// ---------------------------------------------------------------------------
// Device lifecycle
// ---------------------------------------------------------------------------

void VhostNetBackend::write_status(std::uint8_t status) {
  if (status == 0) {
    // Full device reset (virtio 1.1 §2.4.2): quiesce every queue, drop
    // quarantines and wedges, forget the negotiated features. Stale
    // in-flight completions are dropped by the reset-epoch guard; MSI
    // identities and the ES2 poll quota survive (host module state the
    // driver re-programs identically).
    for (int q = 0; q < num_queues(); ++q) clear_queue(q, /*enabled=*/false);
    status_ = 0;
    features_acked_ = 0;
    ++device_resets_;
    if (recovery_log_ != nullptr) {
      recovery_log_->note_action(RecoveryRung::kDeviceReset, kScopeWorker);
    }
    if (Tracer* tr = vm_.host().sim().tracer()) {
      std::uint64_t corr = fault_corr_[kScopeWorker];
      if (corr == 0) corr = fault_corr_[kScopeTx];
      if (corr == 0) corr = fault_corr_[kScopeRx];
      tr->emit(vm_.host().sim().now(), TraceKind::kDeviceReset, vm_.id(), -1,
               worker_core(worker_), /*arg=*/0, corr);
    }
    if (reset_listener_) reset_listener_();
    return;
  }
  // DEVICE_NEEDS_RESET is device-owned: guest writes can neither set nor
  // clear it short of a full reset.
  const bool was_driver_ok = driver_ok();
  status_ = static_cast<std::uint8_t>(
      (status & ~kStatusDeviceNeedsReset) |
      (status_ & kStatusDeviceNeedsReset));
  if (!was_driver_ok && driver_ok()) {
    ++renegotiations_;
    if (Tracer* tr = vm_.host().sim().tracer()) {
      tr->emit(vm_.host().sim().now(), TraceKind::kRenegotiate, vm_.id(), -1,
               worker_core(worker_),
               static_cast<std::uint32_t>(features_acked_ & 0xffffffffu),
               fault_corr_[kScopeWorker]);
    }
  }
}

bool VhostNetBackend::ack_features(std::uint64_t features) {
  if ((features & ~features_offered()) != 0) return false;
  features_acked_ = features;
  return true;
}

void VhostNetBackend::clear_queue(int q, bool enabled) {
  Queue& r = rec(q);
  r.vq.reset();
  r.vq.set_enabled(enabled);
  // reset() re-enables notifications; an exit-less backend keeps them off
  // across resets (the poll scan is the only wakeup path).
  if (poll_mode_ == PollMode::kAlwaysPoll) r.vq.disable_notifications();
  r.wedged = false;
  r.selfcheck_strikes = 0;
}

void VhostNetBackend::reset_queue(int q) {
  clear_queue(q, /*enabled=*/true);
  ++queue_resets_;
  if (recovery_log_ != nullptr) {
    recovery_log_->note_action(RecoveryRung::kQueueReset, q % 2);
  }
  bool any_quarantined = false;
  for (int i = 0; i < num_queues(); ++i) {
    if (queue(i).pending_fault() != RingFault::kNone) any_quarantined = true;
  }
  if (!any_quarantined) {
    status_ &= static_cast<std::uint8_t>(~kStatusDeviceNeedsReset);
  }
  if (Tracer* tr = vm_.host().sim().tracer()) {
    tr->emit(vm_.host().sim().now(), TraceKind::kQueueReset, vm_.id(), -1,
             worker_core(worker_), static_cast<std::uint32_t>(q),
             fault_corr_[q % 2]);
  }
}

bool VhostNetBackend::pre_service(int q) {
  Virtqueue& vq = queue(q);
  if (rec(q).wedged) {
    return false;  // eats the activation, does no work
  }
  if (!driver_ok() || !vq.enabled()) return false;
  if (vq.pending_fault() != RingFault::kNone) return false;  // quarantined
  const RingFault f = vq.check_integrity();
  if (f != RingFault::kNone) {
    on_ring_fault(q, f);
    return false;
  }
  return true;
}

void VhostNetBackend::on_ring_fault(int q, RingFault f) {
  queue(q).flag_fault(f);
  status_ |= kStatusDeviceNeedsReset;
  ++ring_faults_detected_;
  if (Tracer* tr = vm_.host().sim().tracer()) {
    tr->emit(vm_.host().sim().now(), TraceKind::kRingFault, vm_.id(), -1,
             worker_core(worker_), static_cast<std::uint32_t>(f),
             fault_corr_[q % 2]);
  }
}

void VhostNetBackend::note_progress(int scope) {
  if (recovery_log_ == nullptr) return;
  const int closed =
      recovery_log_->note_progress(scope, vm_.host().sim().now());
  if (closed > 0) {
    if (Tracer* tr = vm_.host().sim().tracer()) {
      tr->emit(vm_.host().sim().now(), TraceKind::kRecovered, vm_.id(), -1,
               worker_core(worker_), static_cast<std::uint32_t>(closed),
               fault_corr_[scope]);
    }
    fault_corr_[scope] = 0;
    // Progress on any queue also closes worker-scope instances.
    fault_corr_[kScopeWorker] = 0;
  }
}

bool VhostNetBackend::queue_operational(int q) {
  return driver_ok() && queue(q).enabled() &&
         queue(q).pending_fault() == RingFault::kNone;
}

bool VhostNetBackend::kick_blocked(int q) {
  // A wedged handler still *receives* kicks (it eats the turns); only a
  // non-operational device swallows them at the ioeventfd.
  if (queue_operational(q)) return false;
  ++kicks_ignored_;
  return true;
}

void VhostNetBackend::open_fault(LifecycleFault mode, int scope) {
  std::uint64_t corr = 0;
  if (Tracer* tr = vm_.host().sim().tracer()) {
    corr = tr->begin_journey();
    tr->emit(vm_.host().sim().now(), TraceKind::kFaultInject, vm_.id(), -1,
             worker_core(worker_), static_cast<std::uint32_t>(mode), corr);
  }
  fault_corr_[scope] = corr;
  if (recovery_log_ != nullptr) {
    recovery_log_->open(mode, scope, vm_.host().sim().now(), corr);
  }
}

void VhostNetBackend::inject_ring_corruption() {
  const int q = corrupt_seq_ & 1;
  const int kind = (corrupt_seq_ >> 1) % 3;
  ++corrupt_seq_;
  Virtqueue& vq = queue(q);
  if (vq.pending_fault() != RingFault::kNone) return;  // already quarantined
  switch (kind) {
    case 0:
      vq.inject_desc_out_of_range();
      break;
    case 1:
      vq.inject_duplicate_head();
      break;
    default:
      vq.inject_used_overrun();
      break;
  }
  open_fault(LifecycleFault::kDescCorrupt, q);
}

void VhostNetBackend::inject_avail_tear() {
  const int q = tear_seq_ & 1;
  ++tear_seq_;
  Virtqueue& vq = queue(q);
  if (vq.pending_fault() != RingFault::kNone) return;
  if (vq.layout() == RingLayout::kPacked) {
    // The packed analogue of a torn index write: the wrap counter no
    // longer matches the published descriptor position.
    vq.inject_wrap_tear();
  } else {
    vq.inject_avail_tear();
  }
  open_fault(LifecycleFault::kAvailTear, q);
}

void VhostNetBackend::inject_handler_wedge() {
  const int q = wedge_seq_ & 1;
  ++wedge_seq_;
  if (rec(q).wedged) return;
  rec(q).wedged = true;
  open_fault(LifecycleFault::kHandlerWedge, q);
}

void VhostNetBackend::inject_worker_crash(SimDuration restart_delay) {
  if (worker_.crashed()) return;
  open_fault(LifecycleFault::kWorkerCrash, kScopeWorker);
  worker_.crash_and_restart(restart_delay);
}

void VhostNetBackend::arm_lifecycle_selfcheck() {
  if (selfcheck_armed_ || params_.lifecycle_selfcheck_period <= 0) return;
  selfcheck_armed_ = true;
  for (int q = 0; q < num_queues(); ++q) {
    rec(q).selfcheck_last_progress = rec(q).packets;
  }
  selfcheck_ = vm_.host().sim().after(params_.lifecycle_selfcheck_period,
                                      [this] { lifecycle_selfcheck_tick(); });
}

void VhostNetBackend::lifecycle_selfcheck_tick() {
  for (int q = 0; q < num_queues(); ++q) {
    Queue& r = rec(q);
    Virtqueue& vq = r.vq;
    const bool progressed = r.packets != r.selfcheck_last_progress;
    r.selfcheck_last_progress = r.packets;
    // Strikes freeze while the worker is down: re-activating a dead worker
    // is pointless, and the first post-restart tick should escalate from
    // where the stall left off.
    if (worker_.crashed()) continue;
    VqHandler& h = *r.handler;
    if (!has_work(q) || progressed || h.queued() || !vq.enabled() ||
        vq.pending_fault() != RingFault::kNone || !driver_ok()) {
      r.selfcheck_strikes = 0;
      continue;
    }
    ++r.selfcheck_strikes;
    if (r.selfcheck_strikes == 1) {
      // First strike: assume a lost activation (swallowed kick, worker
      // crash) and re-poll in its place — the vhost re-poll rung.
      ++selfcheck_repolls_;
      if (recovery_log_ != nullptr) {
        recovery_log_->note_action(RecoveryRung::kVhostRepoll, q % 2);
      }
      worker_.activate(h);
    } else {
      // Re-polling didn't help: the handler is eating turns without
      // making progress. Declare it wedged and quarantine the queue; the
      // guest ladder takes it from here.
      r.selfcheck_strikes = 0;
      on_ring_fault(q, RingFault::kHandlerWedge);
    }
  }
  selfcheck_ = vm_.host().sim().after(params_.lifecycle_selfcheck_period,
                                      [this] { lifecycle_selfcheck_tick(); });
}

void VhostNetBackend::arm_rx_repoll() {
  if (faults_ == nullptr || params_.rx_repoll_period <= 0) return;
  if (rx_repoll_.pending()) return;
  rx_repoll_ = vm_.host().sim().after(params_.rx_repoll_period, [this] {
    bool still_waiting = false;
    for (QueuePair& qp : pairs_) {
      if (qp.sock_buf.empty()) continue;  // drained, nothing to recover
      Queue& rx = qp.dir[kScopeRx];
      if (rx.vq.has_avail()) {
        // Buffers appeared but the handler is still asleep: the refill
        // kick was lost. Re-poll in its place.
        ++rx_repolls_;
        worker_.activate(*rx.handler);
      } else {
        still_waiting = true;  // still waiting on guest buffers
      }
    }
    if (still_waiting) arm_rx_repoll();
  });
}

void VhostNetBackend::receive_from_wire(PacketPtr packet) {
  const int pair = steer_pair(packet->proto, packet->flow);
  Ring<PacketPtr>& buf = pair_at(pair).sock_buf;
  if (static_cast<int>(buf.size()) >= params_.sock_buffer) {
    ++rx_dropped_;
    return;
  }
  Queue& rx = rec(2 * pair + 1);
  if (Tracer* tr = vm_.host().sim().tracer()) {
    // The RX data path has no guest kick; the wire arrival is the
    // journey's origin (latest arrival wins the batch's id).
    rx.kick_corr = tr->begin_journey();
    tr->emit(vm_.host().sim().now(), TraceKind::kWireRx, vm_.id(), -1, -1,
             static_cast<std::uint32_t>(pair), rx.kick_corr);
  }
  buf.push_back(std::move(packet));
  worker_.activate(*rx.handler);
}

void VhostNetBackend::set_rx_backpressure(bool on) {
  rx_backpressure_ = on;
  if (rx_link_ == nullptr) return;
  rx_link_->set_backpressure(on ? params_.backpressure_keep : 0);
}

void VhostWorker::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"worker", thread_.name()}};
  registry.probe("vhost.worker.turns", labels, [this] {
    return static_cast<double>(turns_);
  });
  registry.probe("vhost.worker.active_high_water", labels, [this] {
    return static_cast<double>(active_high_water_);
  });
  registry.probe("vhost.worker.wakeups", labels, [this] {
    return static_cast<double>(wakeups_);
  });
  registry.probe("vhost.worker.active_handlers", labels, [this] {
    return static_cast<double>(active_.size());
  });
  if (poll_mode_ != PollMode::kNotify) {
    registry.probe("vhost.worker.poll_spins", labels, [this] {
      return static_cast<double>(poll_spins_);
    });
    registry.probe("vhost.worker.poll_harvests", labels, [this] {
      return static_cast<double>(poll_harvests_);
    });
  }
  if (faults_ != nullptr && faults_->plan().lifecycle_enabled()) {
    registry.probe("vhost.worker.crashes", labels, [this] {
      return static_cast<double>(crashes_);
    });
    registry.probe("vhost.worker.restarts", labels, [this] {
      return static_cast<double>(restarts_);
    });
  }
}

void VhostNetBackend::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"vm", vm_.name()}};
  registry.probe("vhost.tx.packets", labels, [this] {
    return static_cast<double>(tx_packets());
  });
  registry.probe("vhost.rx.packets", labels, [this] {
    return static_cast<double>(rx_packets());
  });
  registry.probe("vhost.tx.irqs", labels, [this] {
    return static_cast<double>(irqs_[kScopeTx]);
  });
  registry.probe("vhost.rx.irqs", labels, [this] {
    return static_cast<double>(irqs_[kScopeRx]);
  });
  registry.probe("vhost.tx.mode_reverts", labels, [this] {
    return static_cast<double>(tx_reverts_);
  });
  registry.probe("vhost.tx.quota_hits", labels, [this] {
    return static_cast<double>(tx_quota_hits_);
  });
  registry.probe("vhost.rx.dropped", labels, [this] {
    return static_cast<double>(rx_dropped_);
  });
  // Canonical drop family: every layer that can lose a packet exports a
  // drops{cause=...} series so experiment rows can break collapse down by
  // cause without knowing each layer's private counter name.
  registry.probe("drops", {{"cause", "sock_backlog"}, {"vm", vm_.name()}},
                 [this] { return static_cast<double>(rx_dropped_); });
  registry.probe("vhost.rx.repolls", labels, [this] {
    return static_cast<double>(rx_repolls_);
  });
  registry.probe("vhost.rx.sock_backlog", labels, [this] {
    std::size_t total = 0;
    for (const QueuePair& qp : pairs_) total += qp.sock_buf.size();
    return static_cast<double>(total);
  });
  for (QueuePair& qp : pairs_) {
    for (Queue& q : qp.dir) q.vq.register_metrics(registry, vm_.name());
  }
  if (selfcheck_armed_) {
    registry.probe("vhost.lifecycle.status", labels, [this] {
      return static_cast<double>(status_);
    });
    registry.probe("vhost.lifecycle.ring_faults", labels, [this] {
      return static_cast<double>(ring_faults_detected_);
    });
    registry.probe("vhost.lifecycle.kicks_ignored", labels, [this] {
      return static_cast<double>(kicks_ignored_);
    });
    registry.probe("vhost.lifecycle.selfcheck_repolls", labels, [this] {
      return static_cast<double>(selfcheck_repolls_);
    });
    registry.probe("vhost.lifecycle.queue_resets", labels, [this] {
      return static_cast<double>(queue_resets_);
    });
    registry.probe("vhost.lifecycle.device_resets", labels, [this] {
      return static_cast<double>(device_resets_);
    });
    registry.probe("vhost.lifecycle.renegotiations", labels, [this] {
      return static_cast<double>(renegotiations_);
    });
    // Uniform per-cause watchdog-recovery reporting (the guest frontend
    // registers the tx_rekick / napi_poll causes): host-side re-polls from
    // both the RX re-poll safety net and the lifecycle self-check.
    registry.probe("recovery.watchdog",
                   {{"vm", vm_.name()}, {"cause", "vhost_repoll"}}, [this] {
                     return static_cast<double>(rx_repolls_ +
                                                selfcheck_repolls_);
                   });
  }
}

void VhostWorker::snapshot_state(SnapshotWriter& w) const {
  snapshot_rng(w, rng_);
  w.put_bool(was_sleeping_);
  w.put_u32(static_cast<std::uint32_t>(active_.size()));
  for (const VqHandler* h : active_) {
    w.put_string(h->name_);
    w.put_bool(h->queued_);
    w.put_i64(h->ready_at_);
  }
  w.put_u64(turns_);
  w.put_u64(wakeups_);
  thread_.snapshot_state(w);
  w.put_u8(static_cast<std::uint8_t>(poll_mode_));
  w.put_i64(last_work_);
  w.put_i64(poll_spins_);
  w.put_i64(poll_harvests_);
  w.put_bool(crashed_);
  w.put_i64(crashes_);
  w.put_i64(restarts_);
}

void VhostNetBackend::snapshot_state(SnapshotWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(poll_quota_));
  for (const QueuePair& qp : pairs_) {
    for (const Queue& q : qp.dir) q.vq.snapshot_state(w);
    w.put_u32(static_cast<std::uint32_t>(qp.sock_buf.size()));
    for (const PacketPtr& p : qp.sock_buf) snapshot_packet(w, p);
    for (const Queue& q : qp.dir) w.put_i64(q.packets);
  }
  snapshot_rng(w, rng_);
  w.put_i64(rx_dropped_);
  w.put_i64(rx_repolls_);
  for (std::int64_t irqs : irqs_) w.put_i64(irqs);
  w.put_i64(tx_reverts_);
  w.put_i64(tx_quota_hits_);
  w.put_u8(status_);
  w.put_u64(features_acked_);
  // Per-queue lifecycle fields, each in flat-queue order.
  for (int q = 0; q < num_queues(); ++q) w.put_bool(rec(q).wedged);
  w.put_bool(selfcheck_armed_);
  for (int q = 0; q < num_queues(); ++q) {
    w.put_u32(static_cast<std::uint32_t>(rec(q).selfcheck_strikes));
  }
  for (int q = 0; q < num_queues(); ++q) {
    w.put_i64(rec(q).selfcheck_last_progress);
  }
  w.put_u32(static_cast<std::uint32_t>(corrupt_seq_));
  w.put_u32(static_cast<std::uint32_t>(tear_seq_));
  w.put_u32(static_cast<std::uint32_t>(wedge_seq_));
  w.put_i64(ring_faults_detected_);
  w.put_i64(kicks_ignored_);
  w.put_i64(selfcheck_repolls_);
  w.put_i64(queue_resets_);
  w.put_i64(device_resets_);
  w.put_i64(renegotiations_);
}

}  // namespace es2
