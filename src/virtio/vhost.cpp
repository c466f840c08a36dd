#include "virtio/vhost.h"

#include <algorithm>

#include "base/assert.h"
#include "base/strings.h"
#include "fault/fault.h"
#include "fault/recovery.h"
#include "metrics/metrics.h"
#include "profile/profiler.h"
#include "trace/trace.h"

namespace es2 {

namespace {
int worker_core(VhostWorker& worker) {
  return worker.thread().core() != nullptr ? worker.thread().core()->id() : -1;
}

ProfComp turn_comp(const VqHandler& h) {
  const int q = h.profile_queue();
  return q >= 0 && q % 2 != 0 ? ProfComp::kVhostTurnRx
                              : ProfComp::kVhostTurnTx;
}
unsigned turn_key(const VqHandler& h) {
  const int q = h.profile_queue();
  return q >= 0 ? static_cast<unsigned>(q) : 0u;
}

/// Queue and handler names: bare for pair 0 ("vm0/txq", "vm0/tx"),
/// numbered beyond it ("vm0/txq1", "vm0/tx1"). Metric labels and the
/// worker's snapshot carry them.
std::string pair_name(const Vm& vm, const char* base, int pair) {
  return pair == 0 ? vm.name() + "/" + base
                   : vm.name() + format("/%s%d", base, pair);
}
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
        !poll_sources_.empty()) {
      // Busy-poll idle path: scan the avail rings instead of sleeping.
      bool found = false;
      for (PollSource& s : poll_sources_) {
        if (s.check && s.check()) found = true;
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
      for (PollSource& s : poll_sources_) {
        if (s.rearm && s.rearm()) raced = true;
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
  // closed by the continuation below. The span slot is keyed by the flat
  // queue index, so per-queue turn residency falls out of the export.
  if (Profiler* pf = host_.sim().profiler()) {
    pf->span_begin(turn_comp(*handler), turn_key(*handler), now);
  }
  thread_.exec(wait + host_.costs().ns(kLoopOverhead), [this, handler] {
    handler->service(*this, [this, handler](bool requeue) {
      if (Profiler* pf = host_.sim().profiler()) {
        pf->span_end(turn_comp(*handler), turn_key(*handler),
                     host_.sim().now());
      }
      if (requeue) {
        handler->ready_at_ = host_.sim().now() + requeue_delay_;
        activate(*handler);
      }
      main_loop();
    });
  });
}

// ---------------------------------------------------------------------------
// TX handler — Algorithm 1 (quota = weight reproduces standard vhost)
// ---------------------------------------------------------------------------

class VhostNetBackend::TxHandler final : public VqHandler {
 public:
  TxHandler(VhostNetBackend& backend, int pair)
      : VqHandler(pair_name(backend.vm(), "tx", pair)),
        backend_(backend),
        pair_(pair),
        q_(2 * pair) {
    profile_queue_ = q_;
  }

  void service(VhostWorker& worker,
               Callback<void(bool)> done) override {
    if (Tracer* tr = worker.host().sim().tracer()) {
      tr->emit(worker.host().sim().now(), TraceKind::kWorkerTurn, -1, -1,
               worker_core(worker), static_cast<std::uint32_t>(q_),
               backend_.tx_kick_corr_);
    }
    // Lifecycle gate: a wedged/quarantined/disabled queue parks the turn
    // (and runs the ring-integrity check on the way in).
    if (!backend_.pre_service(q_)) {
      done(false);
      return;
    }
    // Algorithm 1 line 8-10: entering a turn disables guest notifications.
    if (backend_.tx_vq(pair_).notifications_enabled()) {
      backend_.tx_vq(pair_).disable_notifications();
      if (Tracer* tr = worker.host().sim().tracer()) {
        tr->emit(worker.host().sim().now(), TraceKind::kNotifyDisable, -1, -1,
                 worker_core(worker), static_cast<std::uint32_t>(q_),
                 backend_.tx_kick_corr_);
      }
    }
    workload_ = 0;
    poll(worker, std::move(done));
  }

 private:
  void poll(VhostWorker& worker, Callback<void(bool)> done) {
    Virtqueue& vq = backend_.tx_vq(pair_);
    if (workload_ >= backend_.effective_quota()) {
      // High load: stay in polling mode, wait for the next turn
      // (Algorithm 1 line 15-17).
      ++backend_.tx_quota_hits_;
      done(true);
      return;
    }
    auto entry = vq.pop_avail();
    if (!entry) {
      if (backend_.poll_mode() != PollMode::kNotify) {
        // Busy-poll backend: notifications never come back on; the
        // worker's poll scan re-activates this handler when work appears.
        done(false);
        return;
      }
      // Queue empty before the quota filled: the I/O load is low. Return
      // to notification mode (Algorithm 1 line 19-20), handling the
      // standard re-enable race.
      if (vq.enable_notifications()) {
        vq.disable_notifications();
        poll(worker, std::move(done));
        return;
      }
      ++backend_.tx_reverts_;
      if (Tracer* tr = worker.host().sim().tracer()) {
        tr->emit(worker.host().sim().now(), TraceKind::kNotifyEnable, -1, -1,
                 worker_core(worker), static_cast<std::uint32_t>(q_),
                 backend_.tx_kick_corr_);
      }
      done(false);
      return;
    }
    const Cycles cost = backend_.tx_cost(*entry);
    const std::int64_t epoch = vq.reset_epoch();
    worker.exec(cost, [this, &worker, epoch, entry = std::move(*entry),
                       done = std::move(done)]() mutable {
      Virtqueue& vq = backend_.tx_vq(pair_);
      if (vq.reset_epoch() != epoch) {
        // The queue was reset mid-flight: this turn's view of the ring is
        // stale and the descriptor is gone. The packet is dropped (the
        // peer's TCP retransmit recovers it).
        done(false);
        return;
      }
      backend_.tx_link_.transmit(entry.packet);
      ++backend_.pair_at(pair_).tx_packets;
      vq.push_used(Virtqueue::Entry{nullptr, 0});
      backend_.note_progress(kScopeTx);
      if (vq.interrupt_needed()) {
        ++backend_.tx_irqs_;
        backend_.raise_msi(backend_.tx_msi(pair_));
      } else {
        if (Tracer* tr = worker.host().sim().tracer()) {
          tr->emit(worker.host().sim().now(), TraceKind::kIrqSuppressed, -1,
                   -1, worker_core(worker), static_cast<std::uint32_t>(q_),
                   backend_.tx_kick_corr_);
        }
      }
      ++workload_;
      poll(worker, std::move(done));
    });
  }

  VhostNetBackend& backend_;
  const int pair_;
  const int q_;  // flat queue index (2 * pair_)
  int workload_ = 0;
};

// ---------------------------------------------------------------------------
// RX handler
// ---------------------------------------------------------------------------

class VhostNetBackend::RxHandler final : public VqHandler {
 public:
  RxHandler(VhostNetBackend& backend, int pair)
      : VqHandler(pair_name(backend.vm(), "rx", pair)),
        backend_(backend),
        pair_(pair),
        q_(2 * pair + 1) {
    profile_queue_ = q_;
  }

  void service(VhostWorker& worker,
               Callback<void(bool)> done) override {
    if (Tracer* tr = worker.host().sim().tracer()) {
      tr->emit(worker.host().sim().now(), TraceKind::kWorkerTurn, -1, -1,
               worker_core(worker), static_cast<std::uint32_t>(q_),
               backend_.rx_kick_corr_);
    }
    if (!backend_.pre_service(q_)) {
      done(false);
      return;
    }
    if (backend_.rx_vq(pair_).notifications_enabled()) {
      backend_.rx_vq(pair_).disable_notifications();
      if (Tracer* tr = worker.host().sim().tracer()) {
        tr->emit(worker.host().sim().now(), TraceKind::kNotifyDisable, -1, -1,
                 worker_core(worker), static_cast<std::uint32_t>(q_),
                 backend_.rx_kick_corr_);
      }
    }
    workload_ = 0;
    poll(worker, std::move(done));
  }

 private:
  void poll(VhostWorker& worker, Callback<void(bool)> done) {
    Virtqueue& vq = backend_.rx_vq(pair_);
    // Ingress draining is bounded by the vhost weight, NOT the ES2 quota:
    // Algorithm 1 throttles guest *notifications*; wire traffic is not a
    // guest I/O request.
    if (workload_ >= backend_.params().weight) {
      done(true);
      return;
    }
    Ring<PacketPtr>& sock_buf = backend_.pair_at(pair_).sock_buf;
    if (sock_buf.empty()) {
      // No more ingress traffic. Refill notifications stay disabled — the
      // handler reactivates on wire arrivals, not guest kicks.
      done(false);
      return;
    }
    if (!vq.has_avail()) {
      if (backend_.poll_mode() != PollMode::kNotify) {
        // Busy-poll backend: the poll scan notices when the guest posts
        // fresh receive buffers; no refill notification needed.
        done(false);
        return;
      }
      // Out of guest receive buffers: arm the refill notification so the
      // guest's next buffer post kicks us awake (with the re-check race).
      if (vq.enable_notifications()) {
        vq.disable_notifications();
        poll(worker, std::move(done));
        return;
      }
      if (Tracer* tr = worker.host().sim().tracer()) {
        tr->emit(worker.host().sim().now(), TraceKind::kNotifyEnable, -1, -1,
                 worker_core(worker), static_cast<std::uint32_t>(q_),
                 backend_.rx_kick_corr_);
      }
      // Under fault injection the refill kick itself may be swallowed:
      // schedule a re-poll so a lost kick degrades to latency, not a wedge.
      backend_.arm_rx_repoll();
      done(false);
      return;
    }
    PacketPtr packet = sock_buf.front();
    sock_buf.pop_front();
    const Cycles cost = backend_.rx_cost(packet);
    const std::int64_t epoch = vq.reset_epoch();
    worker.exec(cost, [this, &worker, epoch, packet = std::move(packet),
                       done = std::move(done)]() mutable {
      Virtqueue& vq = backend_.rx_vq(pair_);
      if (vq.reset_epoch() != epoch) {
        // Reset raced the copy: the buffer this packet was headed for no
        // longer exists. Drop it; the sender retransmits.
        done(false);
        return;
      }
      auto buffer = vq.pop_avail();
      ES2_CHECK(buffer.has_value());
      ++backend_.pair_at(pair_).rx_packets;
      vq.push_used(Virtqueue::Entry{packet, packet->wire_size});
      backend_.note_progress(kScopeRx);
      if (vq.interrupt_needed()) {
        ++backend_.rx_irqs_;
        backend_.raise_msi(backend_.rx_msi(pair_));
      } else {
        if (Tracer* tr = worker.host().sim().tracer()) {
          tr->emit(worker.host().sim().now(), TraceKind::kIrqSuppressed, -1,
                   -1, worker_core(worker), static_cast<std::uint32_t>(q_),
                   backend_.rx_kick_corr_);
        }
      }
      ++workload_;
      poll(worker, std::move(done));
    });
  }

  VhostNetBackend& backend_;
  const int pair_;
  const int q_;  // flat queue index (2 * pair_ + 1)
  int workload_ = 0;
};

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------

VhostNetBackend::QueuePair::QueuePair(VhostNetBackend& backend, int pair)
    : tx_vq(pair_name(backend.vm(), "txq", pair),
            backend.params().vq_capacity, backend.params().ring_layout),
      rx_vq(pair_name(backend.vm(), "rxq", pair),
            backend.params().vq_capacity, backend.params().ring_layout),
      tx_handler(std::make_unique<TxHandler>(backend, pair)),
      rx_handler(std::make_unique<RxHandler>(backend, pair)) {
  // Each pair gets its own virtio-net MSI vectors (kFirstDeviceVector+1/+2
  // for pair 0, then +2 per pair) with guest affinity spread across vCPUs
  // — the standard irqbalance-style queue->vCPU mapping — and
  // lowest-priority delivery (Linux apic_flat default).
  const int vcpus = backend.vm().num_vcpus();
  tx_msi = MsiMessage{static_cast<Vector>(kFirstDeviceVector + 1 + 2 * pair),
                      pair % vcpus, DeliveryMode::kLowestPriority};
  rx_msi = MsiMessage{static_cast<Vector>(kFirstDeviceVector + 2 + 2 * pair),
                      pair % vcpus, DeliveryMode::kLowestPriority};
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
  const std::size_t nq = static_cast<std::size_t>(num_queues());
  wedged_.assign(nq, false);
  selfcheck_strikes_.assign(nq, 0);
  selfcheck_last_progress_.assign(nq, 0);
  // Boot pre-negotiated with everything on offer acked (packed/MQ bits
  // included when configured); the frontend renegotiates from scratch.
  features_acked_ = features_offered();
}

VhostNetBackend::~VhostNetBackend() = default;

void VhostNetBackend::set_poll_quota(int quota) { poll_quota_ = quota; }

std::int64_t VhostNetBackend::tx_packets() const {
  std::int64_t total = 0;
  for (const QueuePair& p : pairs_) total += p.tx_packets;
  return total;
}

std::int64_t VhostNetBackend::rx_packets() const {
  std::int64_t total = 0;
  for (const QueuePair& p : pairs_) total += p.rx_packets;
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
  VhostWorker::PollSource source;
  source.check = [this] { return poll_check(); };
  source.rearm = [this] { return poll_rearm(); };
  worker_.add_poll_source(std::move(source));
  if (mode == PollMode::kAlwaysPoll) {
    // Exit-less dataplane: the guest never finds notifications enabled,
    // so kick_needed() is permanently false and no I/O exits happen.
    for (int q = 0; q < num_queues(); ++q) queue(q).disable_notifications();
  }
}

bool VhostNetBackend::poll_check() {
  bool any = false;
  for (int p = 0; p < num_queue_pairs(); ++p) {
    QueuePair& qp = pair_at(p);
    const int txq = 2 * p;
    const int rxq = 2 * p + 1;
    if (queue_operational(txq) && !wedged_[static_cast<std::size_t>(txq)] &&
        qp.tx_vq.has_avail() && !qp.tx_handler->queued()) {
      worker_.activate(*qp.tx_handler);
      any = true;
    }
    if (queue_operational(rxq) && !wedged_[static_cast<std::size_t>(rxq)] &&
        !qp.sock_buf.empty() && qp.rx_vq.has_avail() &&
        !qp.rx_handler->queued()) {
      worker_.activate(*qp.rx_handler);
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
    if (qp.tx_vq.enable_notifications()) {
      qp.tx_vq.disable_notifications();
      worker_.activate(*qp.tx_handler);
      raced = true;
    }
    // The RX handler is woken by wire arrivals, not guest kicks; the only
    // kick it ever needs is the buffer-refill one, and only while ingress
    // is actually stuck waiting on guest buffers.
    if (!qp.sock_buf.empty()) {
      if (qp.rx_vq.has_avail() || qp.rx_vq.enable_notifications()) {
        qp.rx_vq.disable_notifications();
        worker_.activate(*qp.rx_handler);
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

Cycles VhostNetBackend::tx_cost(const Virtqueue::Entry& e) {
  const Bytes size = e.packet ? e.packet->wire_size : 0;
  return jittered(params_.tx_per_packet +
                  static_cast<Cycles>(params_.cycles_per_byte *
                                      static_cast<double>(size)));
}

Cycles VhostNetBackend::rx_cost(const PacketPtr& p) {
  return jittered(params_.rx_per_packet +
                  static_cast<Cycles>(params_.cycles_per_byte *
                                      static_cast<double>(p->wire_size)));
}

void VhostNetBackend::raise_msi(const MsiMessage& msi) {
  if (msi_filter_ && !msi_filter_(msi)) return;  // coalesced
  // The raise -> router -> vcpu delivery chain is synchronous, so a sync
  // scope captures its full host cost.
  Profiler::Scope prof_scope(vm_.host().sim().profiler(),
                             ProfComp::kVhostMsi);
  if (Tracer* tr = vm_.host().sim().tracer()) {
    std::uint64_t corr =
        msi.vector == tx_msi(0).vector ? tx_kick_corr_ : rx_kick_corr_;
    if (corr == 0) corr = tr->begin_journey();
    if (faults_ != nullptr && faults_->drop_msi()) {
      tr->emit(vm_.host().sim().now(), TraceKind::kMsiDrop, vm_.id(), -1,
               worker_core(worker_), msi.vector, corr);
      return;
    }
    tr->emit(vm_.host().sim().now(), TraceKind::kMsiRaise, vm_.id(), -1,
             worker_core(worker_), msi.vector, corr);
    // Hand the journey across the synchronous router -> vcpu delivery.
    tr->set_inflight(corr);
    vm_.host().router().deliver_msi(vm_, msi);
    return;
  }
  if (faults_ != nullptr && faults_->drop_msi()) return;
  vm_.host().router().deliver_msi(vm_, msi);
}

void VhostNetBackend::raise_msi_now(const MsiMessage& msi) {
  if (Tracer* tr = vm_.host().sim().tracer()) {
    const std::uint64_t corr = tr->begin_journey();
    tr->emit(vm_.host().sim().now(), TraceKind::kMsiRaise, vm_.id(), -1,
             worker_core(worker_), msi.vector, corr);
    tr->set_inflight(corr);
  }
  vm_.host().router().deliver_msi(vm_, msi);
}

void VhostNetBackend::notify_tx(int pair) {
  if (Tracer* tr = vm_.host().sim().tracer()) {
    // A TX kick opens a fresh journey: everything the handler does on its
    // next turn is on this kick's behalf.
    tx_kick_corr_ = tr->begin_journey();
    tr->emit(vm_.host().sim().now(), TraceKind::kKick, vm_.id(), -1, -1,
             static_cast<std::uint32_t>(2 * pair), tx_kick_corr_);
  }
  if (kick_blocked(2 * pair)) return;
  if (faults_ != nullptr) {
    switch (faults_->kick_fate()) {
      case FaultInjector::KickFate::kDrop:
        if (Tracer* tr = vm_.host().sim().tracer()) {
          tr->emit(vm_.host().sim().now(), TraceKind::kKickDrop, vm_.id(), -1,
                   -1, static_cast<std::uint32_t>(2 * pair), tx_kick_corr_);
        }
        return;
      case FaultInjector::KickFate::kDelay:
        vm_.host().sim().after(faults_->kick_delay(), [this, pair] {
          worker_.activate(*pair_at(pair).tx_handler);
        });
        return;
      case FaultInjector::KickFate::kDeliver:
        break;
    }
  }
  worker_.activate(*pair_at(pair).tx_handler);
}

void VhostNetBackend::notify_rx(int pair) {
  std::uint64_t refill_corr = 0;
  if (Tracer* tr = vm_.host().sim().tracer()) {
    // A refill kick is bookkeeping, not an I/O request: give it its own id
    // but leave rx_kick_corr_ (the data-path journey) alone.
    refill_corr = tr->begin_journey();
    tr->emit(vm_.host().sim().now(), TraceKind::kKick, vm_.id(), -1, -1,
             static_cast<std::uint32_t>(2 * pair + 1), refill_corr);
  }
  if (kick_blocked(2 * pair + 1)) return;
  if (faults_ != nullptr) {
    switch (faults_->kick_fate()) {
      case FaultInjector::KickFate::kDrop:
        if (Tracer* tr = vm_.host().sim().tracer()) {
          tr->emit(vm_.host().sim().now(), TraceKind::kKickDrop, vm_.id(), -1,
                   -1, static_cast<std::uint32_t>(2 * pair + 1), refill_corr);
        }
        return;
      case FaultInjector::KickFate::kDelay:
        vm_.host().sim().after(faults_->kick_delay(), [this, pair] {
          worker_.activate(*pair_at(pair).rx_handler);
        });
        return;
      case FaultInjector::KickFate::kDeliver:
        break;
    }
  }
  worker_.activate(*pair_at(pair).rx_handler);
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
    for (int q = 0; q < num_queues(); ++q) {
      Virtqueue& vq = queue(q);
      vq.reset();
      vq.set_enabled(false);
      // reset() re-enables notifications; an exit-less backend keeps them
      // off across resets (the poll scan is the only wakeup path).
      if (poll_mode_ == PollMode::kAlwaysPoll) vq.disable_notifications();
    }
    std::fill(wedged_.begin(), wedged_.end(), false);
    std::fill(selfcheck_strikes_.begin(), selfcheck_strikes_.end(), 0);
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

void VhostNetBackend::reset_queue(int q) {
  Virtqueue& vq = queue(q);
  vq.reset();
  vq.set_enabled(true);
  if (poll_mode_ == PollMode::kAlwaysPoll) vq.disable_notifications();
  wedged_[static_cast<std::size_t>(q)] = false;
  selfcheck_strikes_[static_cast<std::size_t>(q)] = 0;
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
  if (wedged_[static_cast<std::size_t>(q)]) {
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
  if (wedged_[static_cast<std::size_t>(q)]) return;
  wedged_[static_cast<std::size_t>(q)] = true;
  open_fault(LifecycleFault::kHandlerWedge, q);
}

void VhostNetBackend::inject_worker_crash(SimDuration restart_delay) {
  if (worker_.crashed()) return;
  open_fault(LifecycleFault::kWorkerCrash, kScopeWorker);
  worker_.crash_and_restart(restart_delay);
}

VqHandler& VhostNetBackend::handler_of(int q) {
  QueuePair& qp = pair_at(q / 2);
  return q % 2 == 0 ? static_cast<VqHandler&>(*qp.tx_handler)
                    : static_cast<VqHandler&>(*qp.rx_handler);
}

void VhostNetBackend::arm_lifecycle_selfcheck() {
  if (selfcheck_armed_ || params_.lifecycle_selfcheck_period <= 0) return;
  selfcheck_armed_ = true;
  for (int q = 0; q < num_queues(); ++q) {
    selfcheck_last_progress_[static_cast<std::size_t>(q)] =
        progress_counter(q);
  }
  selfcheck_ = vm_.host().sim().after(params_.lifecycle_selfcheck_period,
                                      [this] { lifecycle_selfcheck_tick(); });
}

void VhostNetBackend::lifecycle_selfcheck_tick() {
  for (int q = 0; q < num_queues(); ++q) {
    const std::size_t qi = static_cast<std::size_t>(q);
    Virtqueue& vq = queue(q);
    const std::int64_t progress = progress_counter(q);
    const bool progressed = progress != selfcheck_last_progress_[qi];
    selfcheck_last_progress_[qi] = progress;
    // Strikes freeze while the worker is down: re-activating a dead worker
    // is pointless, and the first post-restart tick should escalate from
    // where the stall left off.
    if (worker_.crashed()) continue;
    const bool work = q % 2 == 0
                          ? vq.has_avail()
                          : (!pair_at(q / 2).sock_buf.empty() &&
                             vq.has_avail());
    VqHandler& h = handler_of(q);
    if (!work || progressed || h.queued() || !vq.enabled() ||
        vq.pending_fault() != RingFault::kNone || !driver_ok()) {
      selfcheck_strikes_[qi] = 0;
      continue;
    }
    ++selfcheck_strikes_[qi];
    if (selfcheck_strikes_[qi] == 1) {
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
      selfcheck_strikes_[qi] = 0;
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
      if (qp.rx_vq.has_avail()) {
        // Buffers appeared but the handler is still asleep: the refill
        // kick was lost. Re-poll in its place.
        ++rx_repolls_;
        worker_.activate(*qp.rx_handler);
      } else {
        still_waiting = true;  // still waiting on guest buffers
      }
    }
    if (still_waiting) arm_rx_repoll();
  });
}

void VhostNetBackend::receive_from_wire(PacketPtr packet) {
  Profiler::Scope prof_scope(vm_.host().sim().profiler(),
                             ProfComp::kVhostWireRx);
  const int pair = steer_pair(packet->proto, packet->flow);
  Ring<PacketPtr>& buf = pair_at(pair).sock_buf;
  if (static_cast<int>(buf.size()) >= params_.sock_buffer) {
    ++rx_dropped_;
    return;
  }
  if (Tracer* tr = vm_.host().sim().tracer()) {
    // The RX data path has no guest kick; the wire arrival is the
    // journey's origin (latest arrival wins the batch's id).
    rx_kick_corr_ = tr->begin_journey();
    tr->emit(vm_.host().sim().now(), TraceKind::kWireRx, vm_.id(), -1, -1,
             static_cast<std::uint32_t>(pair), rx_kick_corr_);
  }
  buf.push_back(std::move(packet));
  worker_.activate(*pair_at(pair).rx_handler);
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
    return static_cast<double>(tx_irqs_);
  });
  registry.probe("vhost.rx.irqs", labels, [this] {
    return static_cast<double>(rx_irqs_);
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
    qp.tx_vq.register_metrics(registry, vm_.name());
    qp.rx_vq.register_metrics(registry, vm_.name());
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
    qp.tx_vq.snapshot_state(w);
    qp.rx_vq.snapshot_state(w);
    w.put_u32(static_cast<std::uint32_t>(qp.sock_buf.size()));
    for (const PacketPtr& p : qp.sock_buf) snapshot_packet(w, p);
    w.put_i64(qp.tx_packets);
    w.put_i64(qp.rx_packets);
  }
  snapshot_rng(w, rng_);
  w.put_i64(rx_dropped_);
  w.put_i64(rx_repolls_);
  w.put_i64(tx_irqs_);
  w.put_i64(rx_irqs_);
  w.put_i64(tx_reverts_);
  w.put_i64(tx_quota_hits_);
  w.put_u8(status_);
  w.put_u64(features_acked_);
  for (bool wedged : wedged_) w.put_bool(wedged);
  w.put_bool(selfcheck_armed_);
  for (int strikes : selfcheck_strikes_) {
    w.put_u32(static_cast<std::uint32_t>(strikes));
  }
  for (std::int64_t progress : selfcheck_last_progress_) {
    w.put_i64(progress);
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
