#include "vm/vcpu.h"

#include "base/assert.h"
#include "base/strings.h"
#include "metrics/metrics.h"
#include "trace/trace.h"
#include "vm/vm.h"

namespace es2 {

namespace {
int core_of(const SimThread& thread) {
  return thread.core() != nullptr ? thread.core()->id() : -1;
}
}  // namespace

Vcpu::Vcpu(Vm& vm, int index, int pinned_core)
    : vm_(vm),
      sim_(vm.host().sim()),
      index_(index),
      thread_(sim_, format("%s/vcpu%d", vm.name().c_str(), index)),
      pinned_core_(pinned_core),
      noise_timer_(sim_.queue().resident<&Vcpu::noise_tick>(this)) {
  thread_.set_main([this] { run_loop(); });
  thread_.set_span_accumulator(&stats_.spans());
  thread_.add_notifier([this](SimThread&, bool in) {
    if (in) {
      on_sched_in();
    } else {
      on_sched_out();
    }
  });
  vm.host().sched().add(thread_, pinned_core);
}

void Vcpu::start() {
  thread_.wake();
  arm_noise_timer();
}

// ---------------------------------------------------------------------------
// Execution plumbing
// ---------------------------------------------------------------------------

void Vcpu::timed_exec(bool guest, Cycles cost, Callback<void()> done) {
  // The segment carries its span; the thread adds it to stats_ (the
  // accumulator installed above) right before `done` runs.
  const SimDuration ns = vm_.host().costs().ns(cost);
  thread_.exec(ns, std::move(done), ns, guest);
}

void Vcpu::guest_exec(Cycles cost, Callback<void()> done) {
  ES2_CHECK_MSG(mode_ == Mode::kGuest, "guest_exec while in host mode");
  timed_exec(/*guest=*/true, cost, std::move(done));
}

void Vcpu::host_exec(Cycles cost, Callback<void()> done) {
  ES2_CHECK_MSG(mode_ == Mode::kHost, "host_exec while in guest mode");
  timed_exec(/*guest=*/false, cost, std::move(done));
}

void Vcpu::suspend_guest_activity() {
  if (auto seg = thread_.suspend_active()) {
    suspended_.push_back(std::move(*seg));
  }
}

void Vcpu::continue_in_guest() {
  ES2_CHECK(mode_ == Mode::kGuest);
  if (!suspended_.empty()) {
    PausedSegment seg = std::move(suspended_.back());
    suspended_.pop_back();
    thread_.resume_segment(std::move(seg));
    return;
  }
  vm_.guest().run(index_);
}

// ---------------------------------------------------------------------------
// VM exit / entry
// ---------------------------------------------------------------------------

void Vcpu::vm_exit(ExitReason cause, Cycles handle_cost,
                   Callback<void()> then) {
  ES2_CHECK_MSG(mode_ == Mode::kGuest, "vm_exit while already in host mode");
  mode_ = Mode::kHost;
  stats_.record_exit(cause);
  if (Tracer* tr = sim_.tracer()) {
    tr->emit(sim_.now(), TraceKind::kVmExit, vm_.id(), index_,
             core_of(thread_), static_cast<std::uint32_t>(cause));
  }
  const CostModel& c = vm_.host().costs();
  host_exec(c.exit_transition + handle_cost, std::move(then));
}

void Vcpu::vm_entry() {
  ES2_CHECK(mode_ == Mode::kHost);
  const CostModel& costs = vm_.host().costs();
  Cycles entry_cost = costs.entry_transition;

  int inject = -1;
  if (exitless_irqs()) {
    // PI: hardware syncs the descriptor as part of VM entry. ELI: the
    // physical APIC delivers pending vectors once the vCPU re-occupies
    // its core.
    vapic_.sync_pir();
  } else {
    inject = lapic_.deliverable();
    if (inject >= 0) entry_cost += costs.inject_interrupt;
  }

  if (Tracer* tr = sim_.tracer()) {
    tr->emit(sim_.now(), TraceKind::kVmEntry, vm_.id(), index_,
             core_of(thread_),
             inject >= 0 ? static_cast<std::uint32_t>(inject) : 0xffffffffu,
             inject >= 0 ? tr->vector_corr(vm_.id(), index_, inject) : 0);
  }
  host_exec(entry_cost, [this, inject] {
    mode_ = Mode::kGuest;
    if (inject >= 0) {
      if (Tracer* tr = sim_.tracer()) {
        tr->emit(sim_.now(), TraceKind::kIrqInject, vm_.id(), index_,
                 core_of(thread_), static_cast<std::uint32_t>(inject),
                 tr->vector_corr(vm_.id(), index_, inject));
      }
      lapic_.begin_service(static_cast<Vector>(inject));
      dispatch_irq(static_cast<Vector>(inject));
      return;
    }
    if (exitless_irqs()) {
      const int v = vapic_.deliverable();
      if (v >= 0) {
        dispatch_irq(vapic_.deliver());
        return;
      }
    }
    continue_in_guest();
  });
}

void Vcpu::dispatch_irq(Vector vector) {
  ES2_CHECK(mode_ == Mode::kGuest);
  ++irqs_taken_;
  if (Tracer* tr = sim_.tracer()) {
    // Consume the pending-delivery entry and open an in-service frame; the
    // matching EOI pops it (nested interrupts stack).
    const std::uint64_t corr = tr->take_vector_corr(vm_.id(), index_, vector);
    tr->push_service(vm_.id(), index_, corr);
    tr->emit(sim_.now(), TraceKind::kIrqDispatch, vm_.id(), index_,
             core_of(thread_), vector, corr);
  }
  const CostModel& c = vm_.host().costs();
  guest_exec(c.guest_irq_dispatch,
             [this, vector] { vm_.guest().take_interrupt(index_, vector); });
}

// ---------------------------------------------------------------------------
// Guest-facing primitives
// ---------------------------------------------------------------------------

void Vcpu::guest_io_kick(Callback<void()> notify, Callback<void()> done) {
  const CostModel& c = vm_.host().costs();
  vm_exit(ExitReason::kIoInstruction, c.handle_io_instruction,
          [this, notify = std::move(notify), done = std::move(done)]() mutable {
            notify();  // ioeventfd signal in host context
            // Guest code after the kick instruction resumes post-entry.
            suspended_.push_back(PausedSegment{0, std::move(done)});
            vm_entry();
          });
}

void Vcpu::guest_eoi(Callback<void()> done) {
  if (Tracer* tr = sim_.tracer()) {
    // The EOI write closes the innermost in-service frame, whichever
    // mechanism (trap or virtual EOI) retires it below.
    tr->emit(sim_.now(), TraceKind::kEoi, vm_.id(), index_, core_of(thread_),
             0, tr->pop_service(vm_.id(), index_));
  }
  const CostModel& c = vm_.host().costs();
  if (exitless_irqs()) {
    // PI: exit-less virtual EOI (paper Fig. 2 step 5); ELI: the physical
    // EOI register is exposed to the guest. After the EOI retires,
    // hardware immediately delivers the next deliverable virtual interrupt,
    // nesting in front of the handler epilogue.
    guest_exec(c.pi_virtual_eoi, [this, done = std::move(done)]() mutable {
      const bool more = vapic_.eoi();
      if (more) {
        suspended_.push_back(PausedSegment{0, std::move(done)});
        dispatch_irq(vapic_.deliver());
        return;
      }
      done();
    });
    return;
  }
  // Baseline: the EOI write itself is a short guest op, then traps.
  guest_exec(c.guest_eoi_write, [this, done = std::move(done)]() mutable {
    const CostModel& costs = vm_.host().costs();
    vm_exit(ExitReason::kApicAccess, costs.handle_apic_access,
            [this, done = std::move(done)]() mutable {
              lapic_.eoi();  // any newly deliverable vector injects at entry
              suspended_.push_back(PausedSegment{0, std::move(done)});
              vm_entry();
            });
  });
}

void Vcpu::guest_halt() {
  const CostModel& c = vm_.host().costs();
  vm_exit(ExitReason::kHlt, c.handle_hlt, [this] {
    if (interrupt_pending()) {
      vm_entry();
      return;
    }
    halted_ = true;
    thread_.block();
    // Wake path: run_loop() performs the next VM entry.
  });
}

void Vcpu::irq_done() {
  ES2_CHECK(mode_ == Mode::kGuest);
  continue_in_guest();
}

// ---------------------------------------------------------------------------
// Host-facing interrupt delivery
// ---------------------------------------------------------------------------

bool Vcpu::exitless_irqs() const {
  return vm_.irq_mode() != InterruptVirtMode::kEmulatedLapic;
}

bool Vcpu::interrupt_pending() const {
  if (exitless_irqs()) {
    return vapic_.pi().has_posted() || vapic_.has_pending();
  }
  return lapic_.has_pending();
}

void Vcpu::deliver_interrupt(Vector vector) {
  std::uint64_t corr = 0;
  if (Tracer* tr = sim_.tracer()) {
    // Adopt the journey of the MSI being delivered (set by the backend
    // around the synchronous router call); timer/IPI deliveries arrive
    // without one and start their own.
    corr = tr->take_inflight();
    if (corr == 0) corr = tr->begin_journey();
    tr->remember_vector(vm_.id(), index_, vector, corr);
  }
  if (vm_.irq_mode() == InterruptVirtMode::kExitlessDirect) {
    // ELI/DID-style deprivileging (§II-C): the physical Local-APIC delivers
    // straight through the guest IDT when the vCPU occupies its core —
    // no exit for delivery, no exit for the (exposed) EOI. The flip side:
    // the interrupt state lives in the core's physical APIC, so if the
    // vCPU is descheduled the interrupt stalls until it runs again, and
    // whoever holds the core meanwhile is exposed to misdelivery /
    // interruptibility loss — the reason ELI requires dedicated cores.
    vapic_.pi().post(vector);  // reuse the bitmap as the physical IRR
    if (Tracer* tr = sim_.tracer()) {
      tr->emit(sim_.now(), TraceKind::kPiPost, vm_.id(), index_,
               core_of(thread_), vector, corr);
    }
    if (thread_.running() && mode_ == Mode::kGuest) {
      suspend_guest_activity();
      const CostModel& c = vm_.host().costs();
      guest_exec(c.pi_sync_deliver, [this] {
        vapic_.sync_pir();
        const int v = vapic_.deliverable();
        if (v >= 0) {
          dispatch_irq(vapic_.deliver());
        } else {
          continue_in_guest();
        }
      });
      return;
    }
    ++eli_stalls_;
    if (pinned_core_ >= 0) {
      const SimThread* tenant =
          vm_.host().sched().core(pinned_core_).current();
      // Another thread on our core while an interrupt sits in the physical
      // APIC: the hazard case the paper describes.
      if (tenant != nullptr && tenant != &thread_) ++eli_hazards_;
    }
    if (halted_) {
      halted_ = false;
      thread_.wake();
    }
    return;
  }

  if (vm_.irq_mode() == InterruptVirtMode::kPostedInterrupt) {
    const bool need_notification = vapic_.pi().post(vector);
    if (Tracer* tr = sim_.tracer()) {
      tr->emit(sim_.now(),
               need_notification ? TraceKind::kPiPost : TraceKind::kPiCoalesced,
               vm_.id(), index_, core_of(thread_), vector, corr);
    }
    if (!need_notification) return;  // coalesced by the ON bit

    if (thread_.running() && mode_ == Mode::kGuest) {
      // Notification IPI received in guest mode: hardware syncs PIR->vIRR
      // and delivers through the guest IDT with NO exit (Fig. 2 steps 3-4).
      suspend_guest_activity();
      const CostModel& c = vm_.host().costs();
      guest_exec(c.pi_sync_deliver, [this] {
        vapic_.sync_pir();
        const int v = vapic_.deliverable();
        if (v >= 0) {
          dispatch_irq(vapic_.deliver());
        } else {
          continue_in_guest();
        }
      });
      return;
    }
    // Wakeup path: vCPU not in guest mode. PIR syncs at the next VM entry;
    // a halted vCPU is woken via the PI wakeup vector handler.
    if (halted_) {
      halted_ = false;
      thread_.wake();
    }
    return;
  }

  // Baseline: software-emulated LAPIC.
  lapic_.post(vector);
  if (Tracer* tr = sim_.tracer()) {
    tr->emit(sim_.now(), TraceKind::kLapicPost, vm_.id(), index_,
             core_of(thread_), vector, corr);
  }
  if (thread_.running() && mode_ == Mode::kGuest) {
    // The emulated LAPIC cannot touch a running guest: it kicks the vCPU
    // with an IPI, forcing an EXTERNAL_INTERRUPT exit, and injects during
    // the subsequent VM entry (Fig. 1 steps 3-4).
    suspend_guest_activity();
    const CostModel& c = vm_.host().costs();
    vm_exit(ExitReason::kExternalInterrupt, c.handle_external_interrupt,
            [this] { vm_entry(); });
    return;
  }
  if (halted_) {
    halted_ = false;
    thread_.wake();
  }
  // Otherwise the vCPU is mid-exit or descheduled: injection happens for
  // free at its next VM entry (this is why the paper's Table I shows fewer
  // delivery exits than completion exits).
}

// ---------------------------------------------------------------------------
// Thread lifecycle
// ---------------------------------------------------------------------------

void Vcpu::run_loop() {
  if (halted_) {
    if (!interrupt_pending()) {
      thread_.block();
      return;
    }
    halted_ = false;
  }
  ES2_CHECK(mode_ == Mode::kHost);
  vm_entry();
}

void Vcpu::on_sched_out() {
  if (mode_ == Mode::kGuest) {
    // An involuntary preemption of guest code is itself mediated by a VM
    // exit in reality (the host timer tick / resched IPI lands as an
    // EXTERNAL_INTERRUPT exit before schedule() runs).
    stats_.record_exit(ExitReason::kExternalInterrupt);
    need_entry_on_resume_ = true;
  }
}

void Vcpu::on_sched_in() {
  if (!need_entry_on_resume_) return;
  need_entry_on_resume_ = false;
  ES2_CHECK(mode_ == Mode::kGuest);
  // Re-entering the guest after preemption requires a real VM entry, which
  // is also where pending interrupts posted while descheduled inject.
  suspend_guest_activity();
  mode_ = Mode::kHost;
  vm_entry();
}

// ---------------------------------------------------------------------------
// Background "Others" exits (EPT violations, MSR traps, ...)
// ---------------------------------------------------------------------------

void Vcpu::arm_noise_timer() {
  const SimDuration period = vm_.host().costs().other_exit_period;
  if (period <= 0) return;
  noise_timer_.arm(sim_.now() + period);
}

void Vcpu::noise_tick() {
  if (thread_.running() && mode_ == Mode::kGuest &&
      thread_.has_active_segment()) {
    suspend_guest_activity();
    const CostModel& c = vm_.host().costs();
    const bool ept = (noise_seq_++ % 3) == 0;
    vm_exit(ept ? ExitReason::kEptViolation : ExitReason::kOther,
            ept ? c.handle_ept_violation : c.handle_other,
            [this] { vm_entry(); });
  }
  arm_noise_timer();
}

void Vcpu::register_metrics(MetricsRegistry& registry) {
  MetricLabels base = {{"vm", vm_.name()},
                       {"vcpu", format("%d", index_)}};
  for (int r = 0; r < kNumExitReasons; ++r) {
    const auto reason = static_cast<ExitReason>(r);
    if (reason == ExitReason::kCount) continue;
    MetricLabels labels = base;
    labels.emplace_back("cause", exit_reason_name(reason));
    registry.probe("vm.exits", std::move(labels), [this, reason] {
      return static_cast<double>(stats_.lifetime_count(reason));
    });
  }
  registry.probe("vm.exits.total", base, [this] {
    return static_cast<double>(stats_.lifetime_total());
  });
  registry.probe("vm.irqs_taken", base, [this] {
    return static_cast<double>(irqs_taken_);
  });
  if (vm_.irq_mode() == InterruptVirtMode::kExitlessDirect) {
    registry.probe("vm.eli.stalls", base, [this] {
      return static_cast<double>(eli_stalls_);
    });
    registry.probe("vm.eli.hazards", base, [this] {
      return static_cast<double>(eli_hazards_);
    });
  }
  registry.probe("apic.lapic.posts", base, [this] {
    return static_cast<double>(lapic_.posts());
  });
  registry.probe("apic.lapic.eois", base, [this] {
    return static_cast<double>(lapic_.eois());
  });
  registry.probe("apic.lapic.pending", base, [this] {
    return static_cast<double>(lapic_.pending_count());
  });
  registry.probe("apic.pi.posts", base, [this] {
    return static_cast<double>(vapic_.pi().posts());
  });
  registry.probe("apic.pi.notifications", base, [this] {
    return static_cast<double>(vapic_.pi().notifications());
  });
  registry.probe("apic.vapic.eois", base, [this] {
    return static_cast<double>(vapic_.eois());
  });
}

void Vcpu::snapshot_state(SnapshotWriter& w) const {
  w.put_u8(static_cast<std::uint8_t>(mode_));
  w.put_bool(halted_);
  w.put_bool(need_entry_on_resume_);
  w.put_u32(static_cast<std::uint32_t>(suspended_.size()));
  for (const PausedSegment& s : suspended_) w.put_i64(s.remaining);
  lapic_.snapshot_state(w);
  vapic_.snapshot_state(w);
  stats_.snapshot_state(w);
  w.put_i64(irqs_taken_);
  w.put_i64(eli_stalls_);
  w.put_i64(eli_hazards_);
  w.put_u64(noise_seq_);
  thread_.snapshot_state(w);
}

}  // namespace es2
