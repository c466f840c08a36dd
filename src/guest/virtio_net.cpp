#include "guest/virtio_net.h"

#include <algorithm>

#include "base/assert.h"
#include "fault/recovery.h"
#include "guest/guest_os.h"
#include "metrics/metrics.h"
#include "profile/profiler.h"
#include "trace/trace.h"

namespace es2 {

/// Linux's per-CPU softirq thread, modelled as a guest task pinned to
/// vCPU 0 (where NAPI runs). It exists only when overload mitigation is
/// armed; rung 1 of the admission ladder defers budget-exhausted NAPI
/// passes here, so the round-robin scheduler fair-shares the CPU between
/// polling and the application instead of letting softirq context starve
/// it — the Mogul/Ramakrishnan receive-livelock fix.
class VirtioNetFrontend::KsoftirqdTask final : public GuestTask {
 public:
  KsoftirqdTask(VirtioNetFrontend& fe, GuestOs& os)
      : GuestTask(os, "ksoftirqd/0", /*vcpu_affinity=*/0), fe_(fe) {
    block_self();
  }
  void run_unit(Vcpu& vcpu) override { fe_.ksoftirqd_unit(vcpu); }

 private:
  VirtioNetFrontend& fe_;
};

VirtioNetFrontend::~VirtioNetFrontend() = default;

VirtioNetFrontend::VirtioNetFrontend(GuestOs& os, VhostNetBackend& backend)
    : os_(os), backend_(backend) {
  const int pairs = backend_.num_queue_pairs();
  napi_scheduled_.assign(static_cast<std::size_t>(pairs), false);
  watchdog_last_used_.assign(static_cast<std::size_t>(pairs), 0);
  watchdog_strikes_.assign(static_cast<std::size_t>(pairs), 0);
  rx_watchdog_last_polled_.assign(static_cast<std::size_t>(pairs), 0);
  rx_watchdog_strikes_.assign(static_cast<std::size_t>(pairs), 0);
  rx_polled_by_pair_.assign(static_cast<std::size_t>(pairs), 0);
  watchdog_tx_stalled_.assign(static_cast<std::size_t>(pairs), 0);
  watchdog_rx_stalled_.assign(static_cast<std::size_t>(pairs), 0);
  ladder_recent_.assign(static_cast<std::size_t>(backend_.num_queues()), 0);
  // Real virtio bring-up through the status register: reset, negotiate,
  // queue setup, DRIVER_OK. The backend boots pre-negotiated (for
  // directly-constructed test rings); this sequence rebuilds the identical
  // end state the proper way.
  backend_.write_status(0);
  negotiate();
  // Driver initialization: pre-post every receive ring, run TX with
  // completion interrupts off (Linux virtio-net frees old skbs inline) and
  // RX interrupts on. Refill notifications start disabled host-side.
  for (int pair = 0; pair < pairs; ++pair) {
    Virtqueue& rx = backend_.rx_vq(pair);
    while (rx.free_slots() > 0) {
      const bool ok = rx.add_avail(Virtqueue::Entry{nullptr, 0});
      ES2_CHECK(ok);
    }
    rx.disable_notifications();
    backend_.tx_vq(pair).disable_interrupts();
  }
  backend_.write_status(kStatusAcknowledge | kStatusDriver |
                        kStatusFeaturesOk | kStatusDriverOk);
  ksoftirqd_pending_.assign(static_cast<std::size_t>(pairs), 0);
  if (os.params().overload_mitigation) {
    // Created only when armed: unarmed worlds keep their task list — and
    // therefore their round-robin schedules and snapshot bytes — unchanged.
    ksoftirqd_ = std::make_unique<KsoftirqdTask>(*this, os);
    os.add_task(*ksoftirqd_);
  }
  os.attach_netdev(*this);
}

void VirtioNetFrontend::negotiate() {
  backend_.write_status(kStatusAcknowledge);
  backend_.write_status(kStatusAcknowledge | kStatusDriver);
  const bool ok = backend_.ack_features(backend_.features_offered());
  ES2_CHECK_MSG(ok, "device rejected its own feature offer");
  backend_.write_status(kStatusAcknowledge | kStatusDriver |
                        kStatusFeaturesOk);
  for (int q = 0; q < backend_.num_queues(); ++q) {
    backend_.enable_queue(q, true);
  }
}

void VirtioNetFrontend::wake_tx_waiters() {
  if (tx_waiters_.empty()) return;
  // Swap rather than move, so both lists keep their storage; tasks that
  // re-register while being woken wait for the next pass.
  ES2_CHECK(waking_.empty());
  waking_.swap(tx_waiters_);
  for (GuestTask* task : waking_) task->wake();
  waking_.clear();
}

bool VirtioNetFrontend::owns_vector(Vector v) const {
  for (int pair = 0; pair < backend_.num_queue_pairs(); ++pair) {
    if (v == backend_.rx_msi(pair).vector || v == backend_.tx_msi(pair).vector)
      return true;
  }
  return false;
}

void VirtioNetFrontend::handle_irq(Vcpu& vcpu, Vector vector) {
  // MSI-X routing: each queue pair owns two vectors; NAPI runs on the pair
  // the vector belongs to, leaving other pairs' suppression state alone.
  int pair = 0;
  for (int p = 0; p < backend_.num_queue_pairs(); ++p) {
    if (vector == backend_.rx_msi(p).vector ||
        vector == backend_.tx_msi(p).vector) {
      pair = p;
      break;
    }
  }
  const GuestParams& p = os_.params();
  vcpu.guest_exec(p.hardirq, [this, &vcpu, pair] {
    // napi_schedule: mask this pair's interrupts until polling drains.
    backend_.rx_vq(pair).disable_interrupts();
    backend_.tx_vq(pair).disable_interrupts();
    napi_scheduled_[static_cast<std::size_t>(pair)] = true;
    if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
      tr->emit(vcpu.vm().host().sim().now(), TraceKind::kNotifyDisable,
               vcpu.vm().id(), vcpu.index(), -1, /*arg=*/2,
               tr->current_service(vcpu.vm().id(), vcpu.index()));
    }
    vcpu.guest_eoi([this, &vcpu, pair] {
      const GuestParams& p = os_.params();
      vcpu.guest_exec(p.softirq_entry, [this, &vcpu, pair] {
        napi_poll(vcpu, pair, [this, &vcpu, pair] {
          napi_scheduled_[static_cast<std::size_t>(pair)] = false;
          vcpu.irq_done();
        });
      });
    });
  });
}

void VirtioNetFrontend::napi_poll(Vcpu& vcpu, int pair,
                                  Callback<void()> done) {
  // One poll pass per (vm, pair); the span closes in finish_poll when the
  // pass re-arms interrupts (the napi_complete epilogue is excluded).
  if (Profiler* pf = vcpu.vm().host().sim().profiler()) {
    pf->span_begin(ProfComp::kGuestNapi,
                   static_cast<unsigned>(vcpu.vm().id() * 16 + pair),
                   vcpu.vm().host().sim().now());
  }
  if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
    tr->emit(vcpu.vm().host().sim().now(), TraceKind::kNapiPoll,
             vcpu.vm().id(), vcpu.index(), -1, /*arg=*/0,
             tr->current_service(vcpu.vm().id(), vcpu.index()));
  }
  reclaim_tx(vcpu, pair, [this, &vcpu, pair, done = std::move(done)]() mutable {
    napi_poll_one(vcpu, pair, os_.params().napi_weight, std::move(done));
  });
}

namespace {
Cycles rx_packet_cost(const GuestParams& p, const Packet& pkt) {
  switch (pkt.proto) {
    case Proto::kTcp:
      if (pkt.payload == 0) return p.rx_ack_processing;
      return p.rx_tcp_per_packet +
             static_cast<Cycles>(p.rx_cycles_per_byte *
                                 static_cast<double>(pkt.payload));
    case Proto::kUdp:
      return p.rx_udp_per_packet +
             static_cast<Cycles>(p.rx_cycles_per_byte *
                                 static_cast<double>(pkt.payload));
    case Proto::kIcmp:
      return p.rx_udp_per_packet;
  }
  return p.rx_udp_per_packet;
}
}  // namespace

void VirtioNetFrontend::napi_poll_one(Vcpu& vcpu, int pair, int budget_left,
                                      Callback<void()> done) {
  Virtqueue& rx = backend_.rx_vq(pair);
  auto entry = rx.pop_used();
  if (!entry) {
    finish_poll(vcpu, pair, std::move(done));
    return;
  }
  ES2_CHECK_MSG(entry->packet != nullptr, "used RX entry without a packet");
  const Cycles cost = rx_packet_cost(os_.params(), *entry->packet);
  PacketPtr packet = entry->packet;
  vcpu.guest_exec(cost, [this, &vcpu, pair, budget_left,
                         packet = std::move(packet),
                         done = std::move(done)]() mutable {
    ++rx_polled_;
    ++rx_polled_by_pair_[static_cast<std::size_t>(pair)];
    os_.deliver_to_stack(
        vcpu, packet,
        [this, &vcpu, pair, budget_left, done = std::move(done)]() mutable {
          if (budget_left <= 1 && overload_rung_ >= 1 &&
              ksoftirqd_ != nullptr) {
            // Budget spent at rung >= 1: hand the still-loaded ring to
            // ksoftirqd (task context) instead of refreshing the budget in
            // softirq context, ending the interrupt pass.
            ksoftirqd_defer(vcpu, pair);
            done();
            return;
          }
          // Linux reschedules the softirq when the budget is spent; the
          // net effect under sustained load is continued polling, which is
          // what we model.
          const int next_budget =
              budget_left > 1 ? budget_left - 1 : os_.params().napi_weight;
          napi_poll_one(vcpu, pair, next_budget, std::move(done));
        });
  });
}

void VirtioNetFrontend::finish_poll(Vcpu& vcpu, int pair,
                                    Callback<void()> done) {
  refill_rx(vcpu, pair, [this, &vcpu, pair, done = std::move(done)]() mutable {
    Virtqueue& rx = backend_.rx_vq(pair);
    rx.enable_interrupts();
    if (rx.used_count() > 0) {
      // Race: more packets completed between the last poll and re-enable.
      rx.disable_interrupts();
      if (overload_rung_ >= 1 && ksoftirqd_ != nullptr) {
        ksoftirqd_defer(vcpu, pair);
        done();
        return;
      }
      napi_poll_one(vcpu, pair, os_.params().napi_weight, std::move(done));
      return;
    }
    if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
      tr->emit(vcpu.vm().host().sim().now(), TraceKind::kNotifyEnable,
               vcpu.vm().id(), vcpu.index(), -1, /*arg=*/2,
               tr->current_service(vcpu.vm().id(), vcpu.index()));
    }
    // TX-completion interrupts are armed only while senders wait on a
    // stopped queue; otherwise virtio-net leaves them off.
    if (!tx_waiters_.empty()) {
      backend_.tx_vq(pair).enable_interrupts();
      if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
        tr->emit(vcpu.vm().host().sim().now(), TraceKind::kNotifyEnable,
                 vcpu.vm().id(), vcpu.index(), -1, /*arg=*/3,
                 tr->current_service(vcpu.vm().id(), vcpu.index()));
      }
    }
    if (Profiler* pf = vcpu.vm().host().sim().profiler()) {
      pf->span_end(ProfComp::kGuestNapi,
                   static_cast<unsigned>(vcpu.vm().id() * 16 + pair),
                   vcpu.vm().host().sim().now());
    }
    vcpu.guest_exec(os_.params().napi_complete, std::move(done));
  });
}

void VirtioNetFrontend::reclaim_tx(Vcpu& vcpu, int pair,
                                   Callback<void()> done) {
  Virtqueue& tx = backend_.tx_vq(pair);
  int freed = 0;
  while (tx.pop_used()) ++freed;
  if (freed == 0) {
    done();
    return;
  }
  const Cycles cost = static_cast<Cycles>(freed) *
                      os_.params().tx_reclaim_per_entry;
  vcpu.guest_exec(cost, [this, done = std::move(done)] {
    wake_tx_waiters();
    done();
  });
}

void VirtioNetFrontend::refill_rx(Vcpu& vcpu, int pair,
                                  Callback<void()> done) {
  Virtqueue& rx = backend_.rx_vq(pair);
  int added = 0;
  bool kick = false;
  while (rx.free_slots() > 0) {
    const bool ok = rx.add_avail(Virtqueue::Entry{nullptr, 0});
    ES2_CHECK(ok);
    kick = kick || rx.kick_needed();
    ++added;
  }
  if (added == 0) {
    done();
    return;
  }
  const Cycles cost =
      static_cast<Cycles>(added) * os_.params().rx_refill_per_buffer;
  vcpu.guest_exec(cost, [this, &vcpu, pair, kick,
                         done = std::move(done)]() mutable {
    if (kick) {
      ++kicks_;
      vcpu.guest_io_kick([this, pair] { backend_.notify_rx(pair); },
                         std::move(done));
      return;
    }
    if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
      // EVENT_IDX said the host is already polling: the refill needed no
      // exit at all — the suppression win the paper's Table 1 counts.
      tr->emit(vcpu.vm().host().sim().now(), TraceKind::kKickSuppressed,
               vcpu.vm().id(), vcpu.index(), -1, /*arg=*/1);
    }
    done();
  });
}

void VirtioNetFrontend::refill_all_rx(Vcpu& vcpu, int pair,
                                      Callback<void()> done) {
  if (pair >= backend_.num_queue_pairs()) {
    done();
    return;
  }
  refill_rx(vcpu, pair, [this, &vcpu, pair, done = std::move(done)]() mutable {
    refill_all_rx(vcpu, pair + 1, std::move(done));
  });
}

void VirtioNetFrontend::transmit(Vcpu& vcpu, PacketPtr packet,
                                 Callback<void(bool)> done) {
  // XPS-style steering: TX follows the same RSS hash the host uses for RX,
  // so a flow's two directions stay on one queue pair.
  const int pair = backend_.steer_pair(packet->proto, packet->flow);
  Virtqueue& tx = backend_.tx_vq(pair);
  // start_xmit frees completed descriptors inline (cost folded into the
  // caller's per-packet send cost).
  while (tx.pop_used()) {
  }
  if (tx.free_slots() <= 0) {
    // Ring full: stop the queue and arm TX-completion interrupts so the
    // backend's progress wakes the sender.
    ++tx_stops_;
    tx.enable_interrupts();
    if (tx.used_count() > 0) {
      // Race: completions arrived before the irq was armed.
      while (tx.pop_used()) {
      }
      tx.disable_interrupts();
    } else {
      done(false);
      return;
    }
  }
  const bool ok = tx.add_avail(Virtqueue::Entry{packet, packet->wire_size});
  ES2_CHECK(ok);
  if (tx.kick_needed()) {
    ++kicks_;
    vcpu.guest_io_kick([this, pair] { backend_.notify_tx(pair); },
                       [done = std::move(done)] { done(true); });
    return;
  }
  if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
    tr->emit(vcpu.vm().host().sim().now(), TraceKind::kKickSuppressed,
             vcpu.vm().id(), vcpu.index(), -1, /*arg=*/0);
  }
  done(true);
}

void VirtioNetFrontend::tx_watchdog_tick(Vcpu& vcpu,
                                         Callback<void()> done) {
  // The receive-livelock detector piggybacks on the same tick. Every
  // vCPU's staggered timer runs it, so it keeps sampling even while the
  // NAPI vCPU is wedged; on a single-vCPU guest the timer interrupt
  // preempts the poll chain mid-segment, which is exactly how a real tick
  // gets through a livelocked CPU. Pure state bookkeeping, no cycles.
  if (ksoftirqd_ != nullptr) overload_tick(vcpu);
  // Sample every pair's stall signatures up front (pure reads); the
  // recovery work below may reset queues, and the flags must reflect the
  // state at tick entry, exactly as the single-queue driver captured them
  // by value before the ladder stage.
  for (int pair = 0; pair < backend_.num_queue_pairs(); ++pair) {
    const auto i = static_cast<std::size_t>(pair);
    Virtqueue& tx = backend_.tx_vq(pair);
    const std::int64_t used_now = tx.total_used();
    // TX stall signature: descriptors posted, zero completion progress
    // since the last tick, and the host sleeping with notifications armed —
    // meaning it expects a kick that evidently never arrived. Anything else
    // resets the strike counter (a kick may legitimately be in flight at
    // sampling time). Busy-poll modes keep notifications off, so the
    // watchdog stays inert there by construction.
    watchdog_tx_stalled_[i] = tx.avail_count() > 0 &&
                              used_now == watchdog_last_used_[i] &&
                              tx.notifications_enabled();
    watchdog_last_used_[i] = used_now;
    // RX missed-interrupt signature (the e1000 watchdog's trick): completed
    // buffers parked in the used ring, zero consumption progress since the
    // last tick, device interrupts armed, and no NAPI pass in flight — the
    // MSI that should have started one evidently never landed, and with
    // used_event stale no later completion will re-raise it. The progress
    // term keeps a merely *pending* interrupt (IRR set, not yet serviced)
    // from ever counting as a stall on healthy paths.
    Virtqueue& rx = backend_.rx_vq(pair);
    watchdog_rx_stalled_[i] = rx.used_count() > 0 &&
                              rx_polled_by_pair_[i] ==
                                  rx_watchdog_last_polled_[i] &&
                              rx.interrupts_enabled() && !napi_scheduled_[i];
    rx_watchdog_last_polled_[i] = rx_polled_by_pair_[i];
  }

  // The watchdog halves run after the (usually pass-through) recovery-
  // ladder stage; a quarantined queue needs a reset, not a re-kick.
  ladder_stage(vcpu, [this, &vcpu, done = std::move(done)]() mutable {
    if (!os_.params().tx_watchdog) {
      std::fill(watchdog_strikes_.begin(), watchdog_strikes_.end(), 0);
      std::fill(rx_watchdog_strikes_.begin(), rx_watchdog_strikes_.end(), 0);
      done();
      return;
    }
    watchdog_pair(vcpu, 0, std::move(done));
  });
}

void VirtioNetFrontend::watchdog_pair(Vcpu& vcpu, int pair,
                                      Callback<void()> done) {
  if (pair >= backend_.num_queue_pairs()) {
    done();
    return;
  }
  const auto i = static_cast<std::size_t>(pair);
  auto next = [this, &vcpu, pair, done = std::move(done)]() mutable {
    watchdog_pair(vcpu, pair + 1, std::move(done));
  };

  // Second half of the pair's tick: recover a lost RX interrupt by running
  // the NAPI pass it would have started. Same two-strike debounce as TX —
  // an MSI legitimately in flight at sampling time never trips it.
  auto rx_stage = [this, &vcpu, pair, i, next = std::move(next)]() mutable {
    if (!watchdog_rx_stalled_[i]) {
      rx_watchdog_strikes_[i] = 0;
      next();
      return;
    }
    if (++rx_watchdog_strikes_[i] < 2) {
      next();
      return;
    }
    rx_watchdog_strikes_[i] = 0;
    ++rx_watchdog_polls_;
    if (RecoveryLog* log = backend_.recovery_log()) {
      log->note_action(RecoveryRung::kGuestWatchdog, kScopeRx);
    }
    if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
      tr->emit(vcpu.vm().host().sim().now(), TraceKind::kWatchdogRecover,
               vcpu.vm().id(), vcpu.index(), -1, /*arg=*/1);
    }
    backend_.rx_vq(pair).disable_interrupts();
    backend_.tx_vq(pair).disable_interrupts();
    napi_scheduled_[i] = true;
    vcpu.guest_exec(os_.params().softirq_entry,
                    [this, &vcpu, pair, i, next = std::move(next)]() mutable {
                      napi_poll(vcpu, pair,
                                [this, i, next = std::move(next)]() mutable {
                                  napi_scheduled_[i] = false;
                                  next();
                                });
                    });
  };

  if (!watchdog_tx_stalled_[i]) {
    watchdog_strikes_[i] = 0;
    rx_stage();
    return;
  }
  if (++watchdog_strikes_[i] < 2) {
    rx_stage();
    return;
  }
  // Two full tick periods without progress: ndo_tx_timeout. Re-kick.
  watchdog_strikes_[i] = 0;
  ++tx_watchdog_kicks_;
  ++kicks_;
  if (RecoveryLog* log = backend_.recovery_log()) {
    log->note_action(RecoveryRung::kGuestWatchdog, kScopeTx);
  }
  if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
    tr->emit(vcpu.vm().host().sim().now(), TraceKind::kWatchdogRecover,
             vcpu.vm().id(), vcpu.index(), -1, /*arg=*/0);
  }
  vcpu.guest_exec(os_.params().tx_watchdog_rekick,
                  [this, &vcpu, pair,
                   rx_stage = std::move(rx_stage)]() mutable {
                    vcpu.guest_io_kick([this, pair] {
                      backend_.notify_tx(pair);
                    }, std::move(rx_stage));
                  });
}

void VirtioNetFrontend::ladder_stage(Vcpu& vcpu, Callback<void()> done) {
  const GuestParams& p = os_.params();
  if (!p.recovery_ladder) {
    done();
    return;
  }
  if (!backend_.needs_reset()) {
    // Healthy (or recovered): the episode is over, escalation state decays.
    std::fill(ladder_recent_.begin(), ladder_recent_.end(), 0);
    done();
    return;
  }
  int first_quarantined = -1;
  int quarantined = 0;
  bool repeat_offender = false;
  for (int q = 0; q < backend_.num_queues(); ++q) {
    if (backend_.queue(q).pending_fault() != RingFault::kNone) {
      if (first_quarantined < 0) first_quarantined = q;
      ++quarantined;
    }
    if (ladder_recent_[static_cast<std::size_t>(q)] >=
        p.ladder_device_reset_after) {
      repeat_offender = true;
    }
  }
  if (quarantined == 0 || quarantined == backend_.num_queues() ||
      repeat_offender) {
    // Device-wide damage (every queue quarantined, or NEEDS_RESET with no
    // queue-level diagnosis) or a queue that keeps coming back: top rung.
    guest_reset_device(vcpu, std::move(done));
    return;
  }
  const int q = first_quarantined;
  ++ladder_recent_[static_cast<std::size_t>(q)];
  guest_reset_queue(vcpu, q, std::move(done));
}

void VirtioNetFrontend::guest_reset_queue(Vcpu& vcpu, int q,
                                          Callback<void()> done) {
  ++ladder_queue_resets_;
  vcpu.guest_exec(os_.params().queue_reset_cost,
                  [this, &vcpu, q, done = std::move(done)]() mutable {
    backend_.reset_queue(q);
    const auto pair = static_cast<std::size_t>(q / 2);
    if (q % 2 == 0) {
      // Fresh TX ring: boot suppression state, blocked senders retry into
      // it (their in-flight descriptors are gone; TCP retransmit covers
      // the lost segments).
      backend_.tx_vq(q / 2).disable_interrupts();
      watchdog_last_used_[pair] = 0;
      watchdog_strikes_[pair] = 0;
      wake_tx_waiters();
      done();
      return;
    }
    // Fresh RX ring: re-post every buffer; the ring's notifications come
    // back enabled, so the refill kicks the backend into draining the
    // socket backlog that piled up during the quarantine.
    rx_watchdog_strikes_[pair] = 0;
    refill_rx(vcpu, q / 2, std::move(done));
  });
}

void VirtioNetFrontend::guest_reset_device(Vcpu& vcpu,
                                           Callback<void()> done) {
  ++ladder_device_resets_;
  std::fill(ladder_recent_.begin(), ladder_recent_.end(), 0);
  vcpu.guest_exec(os_.params().device_reset_cost,
                  [this, &vcpu, done = std::move(done)]() mutable {
    backend_.write_status(0);
    negotiate();
    vcpu.guest_exec(os_.params().renegotiate_cost,
                    [this, &vcpu, done = std::move(done)]() mutable {
      for (int pair = 0; pair < backend_.num_queue_pairs(); ++pair) {
        backend_.tx_vq(pair).disable_interrupts();
      }
      backend_.write_status(kStatusAcknowledge | kStatusDriver |
                            kStatusFeaturesOk | kStatusDriverOk);
      std::fill(watchdog_last_used_.begin(), watchdog_last_used_.end(), 0);
      std::fill(watchdog_strikes_.begin(), watchdog_strikes_.end(), 0);
      std::fill(rx_watchdog_strikes_.begin(), rx_watchdog_strikes_.end(), 0);
      wake_tx_waiters();
      refill_all_rx(vcpu, 0, std::move(done));
    });
  });
}

void VirtioNetFrontend::add_tx_waiter(GuestTask& task) {
  for (GuestTask* t : tx_waiters_) {
    if (t == &task) return;
  }
  tx_waiters_.push_back(&task);
}

void VirtioNetFrontend::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"vm", os_.vm().name()}};
  registry.probe("guest.net.kicks", labels, [this] {
    return static_cast<double>(kicks_);
  });
  registry.probe("guest.net.rx_polled", labels, [this] {
    return static_cast<double>(rx_polled_);
  });
  registry.probe("guest.net.tx_queue_stops", labels, [this] {
    return static_cast<double>(tx_stops_);
  });
  registry.probe("guest.net.tx_watchdog_kicks", labels, [this] {
    return static_cast<double>(tx_watchdog_kicks_);
  });
  registry.probe("guest.net.rx_watchdog_polls", labels, [this] {
    return static_cast<double>(rx_watchdog_polls_);
  });
}

void VirtioNetFrontend::register_lifecycle_metrics(MetricsRegistry& registry) {
  const std::string vm = os_.vm().name();
  registry.probe("recovery.watchdog", {{"vm", vm}, {"cause", "tx_rekick"}},
                 [this] { return static_cast<double>(tx_watchdog_kicks_); });
  registry.probe("recovery.watchdog", {{"vm", vm}, {"cause", "napi_poll"}},
                 [this] { return static_cast<double>(rx_watchdog_polls_); });
  MetricLabels labels = {{"vm", vm}};
  registry.probe("guest.net.ladder_queue_resets", labels, [this] {
    return static_cast<double>(ladder_queue_resets_);
  });
  registry.probe("guest.net.ladder_device_resets", labels, [this] {
    return static_cast<double>(ladder_device_resets_);
  });
}

// ---------------------------------------------------------------------------
// Overload: receive-livelock detection + graceful-degradation ladder
// ---------------------------------------------------------------------------

void VirtioNetFrontend::overload_tick(Vcpu& vcpu) {
  const GuestParams& p = os_.params();
  const std::int64_t polls = rx_polled_;
  const std::int64_t progress = os_.app_progress();
  const std::int64_t poll_delta = polls - overload_last_polls_;
  const std::int64_t progress_delta = progress - overload_last_progress_;
  overload_last_polls_ = polls;
  overload_last_progress_ = progress;
  if (overload_episode_open_ && progress_delta > 0) {
    // First application-level progress since detection: the episode's MTTR
    // clock stops here, even though the ladder stays latched until the
    // storm actually subsides.
    overload_episode_open_ = false;
    if (RecoveryLog* log = backend_.recovery_log()) {
      log->note_progress(kScopeApp, os_.vm().host().sim().now());
    }
  }
  const bool storming = poll_delta >= p.livelock_poll_threshold;
  if (storming && progress_delta == 0) {
    // The livelock signature: the kernel is demonstrably busy taking
    // interrupts and polling packets, yet the application completes
    // nothing. (Merely idle guests never trip this: no polls, no strikes.)
    overload_clear_ = 0;
    if (++overload_strikes_ >= p.livelock_trip_ticks) {
      overload_strikes_ = 0;
      overload_escalate(vcpu);
    }
    return;
  }
  overload_strikes_ = 0;
  if (overload_rung_ > 0 && progress_delta > 0 && !storming) {
    // Healthy sample: progress flowing and poll pressure below storm
    // level. De-escalation is latched behind a run of these so the ladder
    // holds through the storm instead of flapping at its edges.
    if (++overload_clear_ >= p.livelock_clear_ticks) {
      overload_clear_ = 0;
      overload_deescalate();
    }
    return;
  }
  overload_clear_ = 0;
}

void VirtioNetFrontend::overload_escalate(Vcpu& vcpu) {
  if (overload_rung_ >= 3) return;  // top rung: hold until samples clear
  ++overload_rung_;
  overload_max_rung_ = std::max(overload_max_rung_, overload_rung_);
  RecoveryLog* log = backend_.recovery_log();
  if (overload_rung_ == 1) {
    // Detection proper: open a recovery episode so MTTR (time back to the
    // first accepted connection / served response) lands in the same
    // report as every other fault class.
    ++livelock_detections_;
    overload_episode_open_ = true;
    if (log != nullptr) {
      std::uint64_t corr = 0;
      if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
        corr = tr->current_service(vcpu.vm().id(), vcpu.index());
      }
      log->open(LifecycleFault::kRxLivelock, kScopeApp,
                os_.vm().host().sim().now(), corr);
      log->note_action(RecoveryRung::kNapiClamp, kScopeApp);
    }
  } else if (overload_rung_ == 2) {
    backend_.set_rx_backpressure(true);
    if (log != nullptr) log->note_action(RecoveryRung::kRxBackpressure, kScopeApp);
  } else {
    // Rung 3 is applied by the application, which polls overload_rung().
    if (log != nullptr) log->note_action(RecoveryRung::kAcceptShed, kScopeApp);
  }
  if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
    tr->emit(vcpu.vm().host().sim().now(), TraceKind::kWatchdogRecover,
             vcpu.vm().id(), vcpu.index(), -1, /*arg=*/2 + overload_rung_);
  }
}

void VirtioNetFrontend::overload_deescalate() {
  if (overload_rung_ == 0) return;
  if (overload_rung_ == 2) backend_.set_rx_backpressure(false);
  --overload_rung_;
}

void VirtioNetFrontend::ksoftirqd_defer(Vcpu& vcpu, int pair) {
  ++ksoftirqd_defers_;
  ksoftirqd_pending_[static_cast<std::size_t>(pair)] = 1;
  // The softirq pass genuinely ends here; ksoftirqd's polling is ordinary
  // task work, so the NAPI span closes now.
  if (Profiler* pf = vcpu.vm().host().sim().profiler()) {
    pf->span_end(ProfComp::kGuestNapi,
                 static_cast<unsigned>(vcpu.vm().id() * 16 + pair),
                 vcpu.vm().host().sim().now());
  }
  if (Tracer* tr = vcpu.vm().host().sim().tracer()) {
    // arg=1 marks a ksoftirqd handoff (plain poll passes emit arg=0).
    tr->emit(vcpu.vm().host().sim().now(), TraceKind::kNapiPoll,
             vcpu.vm().id(), vcpu.index(), -1, /*arg=*/1,
             tr->current_service(vcpu.vm().id(), vcpu.index()));
  }
  ksoftirqd_->wake();
}

void VirtioNetFrontend::ksoftirqd_unit(Vcpu& vcpu) {
  int pair = -1;
  for (std::size_t i = 0; i < ksoftirqd_pending_.size(); ++i) {
    if (ksoftirqd_pending_[i] != 0) {
      pair = static_cast<int>(i);
      break;
    }
  }
  if (pair < 0) {
    ksoftirqd_->block_self();
    os_.task_done(vcpu);
    return;
  }
  ksoftirqd_poll(vcpu, pair, os_.params().napi_budget_clamp);
}

void VirtioNetFrontend::ksoftirqd_poll(Vcpu& vcpu, int pair, int budget_left) {
  if (budget_left <= 0) {
    // Batch done, ring still loaded: yield so the round-robin scheduler
    // interleaves application tasks between batches — this is the fair
    // share that restores forward progress. The pair stays pending and
    // the task stays runnable.
    os_.task_done(vcpu);
    return;
  }
  Virtqueue& rx = backend_.rx_vq(pair);
  auto entry = rx.pop_used();
  if (!entry) {
    ksoftirqd_finish(vcpu, pair);
    return;
  }
  ES2_CHECK_MSG(entry->packet != nullptr, "used RX entry without a packet");
  const Cycles cost = rx_packet_cost(os_.params(), *entry->packet);
  PacketPtr packet = entry->packet;
  vcpu.guest_exec(cost, [this, &vcpu, pair, budget_left,
                         packet = std::move(packet)]() mutable {
    ++rx_polled_;
    ++rx_polled_by_pair_[static_cast<std::size_t>(pair)];
    ++ksoftirqd_polls_;
    os_.deliver_to_stack(vcpu, packet, [this, &vcpu, pair, budget_left] {
      ksoftirqd_poll(vcpu, pair, budget_left - 1);
    });
  });
}

void VirtioNetFrontend::ksoftirqd_finish(Vcpu& vcpu, int pair) {
  // Pass epilogue in task context, mirroring finish_poll: refill, re-arm
  // interrupts, handle the completion race (by staying pending and taking
  // another scheduling turn rather than re-polling inline).
  refill_rx(vcpu, pair, [this, &vcpu, pair] {
    Virtqueue& rx = backend_.rx_vq(pair);
    rx.enable_interrupts();
    if (rx.used_count() > 0) {
      rx.disable_interrupts();
      os_.task_done(vcpu);
      return;
    }
    ksoftirqd_pending_[static_cast<std::size_t>(pair)] = 0;
    if (!tx_waiters_.empty()) backend_.tx_vq(pair).enable_interrupts();
    vcpu.guest_exec(os_.params().napi_complete,
                    [this, &vcpu] { os_.task_done(vcpu); });
  });
}

void VirtioNetFrontend::register_overload_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"vm", os_.vm().name()}};
  registry.probe("guest.net.overload.rung", labels, [this] {
    return static_cast<double>(overload_rung_);
  });
  registry.probe("guest.net.overload.max_rung", labels, [this] {
    return static_cast<double>(overload_max_rung_);
  });
  registry.probe("guest.net.overload.livelock_detections", labels, [this] {
    return static_cast<double>(livelock_detections_);
  });
  registry.probe("guest.net.overload.ksoftirqd_defers", labels, [this] {
    return static_cast<double>(ksoftirqd_defers_);
  });
  registry.probe("guest.net.overload.ksoftirqd_polls", labels, [this] {
    return static_cast<double>(ksoftirqd_polls_);
  });
}

void VirtioNetFrontend::snapshot_overload_state(SnapshotWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(overload_rung_));
  w.put_u32(static_cast<std::uint32_t>(overload_max_rung_));
  w.put_u32(static_cast<std::uint32_t>(overload_strikes_));
  w.put_u32(static_cast<std::uint32_t>(overload_clear_));
  w.put_bool(overload_episode_open_);
  w.put_i64(overload_last_polls_);
  w.put_i64(overload_last_progress_);
  w.put_i64(livelock_detections_);
  w.put_i64(ksoftirqd_defers_);
  w.put_i64(ksoftirqd_polls_);
  for (char pend : ksoftirqd_pending_) w.put_bool(pend != 0);
}

void VirtioNetFrontend::snapshot_lifecycle_state(SnapshotWriter& w) const {
  for (int recent : ladder_recent_) {
    w.put_u32(static_cast<std::uint32_t>(recent));
  }
  w.put_i64(ladder_queue_resets_);
  w.put_i64(ladder_device_resets_);
}

void VirtioNetFrontend::snapshot_state(SnapshotWriter& w) const {
  // Pair 0 keeps the exact pre-MQ field order (and therefore byte layout);
  // additional pairs append their state only when negotiated, so
  // single-queue images are bit-identical to older ones.
  w.put_bool(napi_scheduled_[0]);
  w.put_u32(static_cast<std::uint32_t>(tx_waiters_.size()));
  w.put_i64(tx_stops_);
  w.put_i64(rx_polled_);
  w.put_i64(kicks_);
  w.put_i64(watchdog_last_used_[0]);
  w.put_u32(static_cast<std::uint32_t>(watchdog_strikes_[0]));
  w.put_i64(tx_watchdog_kicks_);
  w.put_i64(rx_watchdog_last_polled_[0]);
  w.put_u32(static_cast<std::uint32_t>(rx_watchdog_strikes_[0]));
  w.put_i64(rx_watchdog_polls_);
  for (int pair = 1; pair < backend_.num_queue_pairs(); ++pair) {
    const auto i = static_cast<std::size_t>(pair);
    w.put_bool(napi_scheduled_[i]);
    w.put_i64(watchdog_last_used_[i]);
    w.put_u32(static_cast<std::uint32_t>(watchdog_strikes_[i]));
    w.put_i64(rx_watchdog_last_polled_[i]);
    w.put_u32(static_cast<std::uint32_t>(rx_watchdog_strikes_[i]));
    w.put_i64(rx_polled_by_pair_[i]);
  }
}

}  // namespace es2
