// Virtual CPU: the guest/host mode state machine that generates VM exits.
//
// A `Vcpu` owns one schedulable `SimThread` and orchestrates the virtual
// I/O event path of the paper's Fig. 1:
//
//  * guest I/O request  -> IO_INSTRUCTION exit -> notify backend -> entry;
//  * interrupt delivery -> (Baseline) kick IPI -> EXTERNAL_INTERRUPT exit ->
//    injection at VM entry,    (PI) exit-less PIR post + in-guest sync;
//  * interrupt completion -> (Baseline) EOI trap -> APIC_ACCESS exit,
//    (PI) exit-less virtual EOI.
//
// Guest work arrives as preemptible segments; an interrupt suspends the
// active segment onto a stack, runs the handler chain, and resumes — so
// nested interrupts and injection-at-entry fall out naturally.
#pragma once

#include <cstdint>
#include <vector>

#include "apic/lapic.h"
#include "apic/vapic.h"
#include "apic/vectors.h"
#include "cpu/thread.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "vm/cost_model.h"
#include "vm/exit.h"
#include "vm/guest_cpu.h"

namespace es2 {

class MetricsRegistry;
class Vm;

/// How virtual interrupts reach this VM (the paper's Baseline vs PI axis,
/// plus the §II-C related-work alternative).
enum class InterruptVirtMode {
  kEmulatedLapic,     // software LAPIC: kick-IPI exits + EOI trap exits
  kPostedInterrupt,   // hardware vAPIC page: exit-less delivery/completion
  kExitlessDirect,    // ELI/DID-style: physical-LAPIC deprivileging — exit-
                      // less to a RUNNING vCPU, but interrupt state lives in
                      // the core's physical APIC, so a descheduled target
                      // stalls delivery and hazards the core's next tenant
};

class Vcpu {
 public:
  Vcpu(Vm& vm, int index, int pinned_core);
  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  /// Makes the vCPU runnable; it performs its first VM entry when first
  /// scheduled.
  void start();

  int index() const { return index_; }
  Vm& vm() { return vm_; }
  SimThread& thread() { return thread_; }
  const SimThread& thread() const { return thread_; }

  /// True while the vCPU thread occupies a physical core (paper's "online").
  bool online() const { return thread_.running(); }
  bool in_guest() const { return mode_ == Mode::kGuest; }
  bool halted() const { return halted_; }

  // --- guest-facing primitives (invoked by the GuestCpu implementation) --

  /// Runs `cost` cycles of unprivileged guest work, then `done`.
  void guest_exec(Cycles cost, Callback<void()> done);

  /// Guest I/O request notification (virtqueue kick): traps with an
  /// IO_INSTRUCTION exit; `notify` runs in host context (the ioeventfd
  /// signal), then the vCPU re-enters and `done` continues guest code.
  void guest_io_kick(Callback<void()> notify, Callback<void()> done);

  /// End-of-interrupt write from the guest's handler. Baseline: APIC_ACCESS
  /// exit; PI: exit-less virtual EOI. `done` continues handler epilogue
  /// (softirq part) in guest mode.
  void guest_eoi(Callback<void()> done);

  /// Guest went idle: HLT exit; the thread blocks until an interrupt.
  void guest_halt();

  /// The guest finished an interrupt context (after EOI + softirq); the
  /// vCPU resumes whatever was interrupted.
  void irq_done();

  // --- host-facing ------------------------------------------------------

  /// Delivers a virtual interrupt via the configured mechanism. Called by
  /// the IRQ router (device MSIs) or the guest timer emulation.
  void deliver_interrupt(Vector vector);

  /// True if an undelivered interrupt is pending in IRR or PIR.
  bool interrupt_pending() const;

  ExitStats& stats() { return stats_; }
  const ExitStats& stats() const { return stats_; }

  /// Interrupts taken by this vCPU (through the guest IDT) so far.
  std::int64_t irqs_taken() const { return irqs_taken_; }

  /// ELI/DID mode only: deliveries that stalled because the target vCPU
  /// was descheduled (its state is captive in the physical LAPIC).
  std::int64_t eli_stalls() const { return eli_stalls_; }
  /// ELI/DID mode only: stalled deliveries that occurred while ANOTHER
  /// VM's vCPU occupied the core — the paper's interruptibility-loss /
  /// misdelivery hazard (§II-C).
  std::int64_t eli_hazards() const { return eli_hazards_; }

  EmulatedLapic& lapic() { return lapic_; }
  VApicPage& vapic() { return vapic_; }

  /// True when interrupt delivery/completion need no VM exits (PI or
  /// ELI-style deprivileging).
  bool exitless_irqs() const;

  /// Registers this vCPU's telemetry — exit counts by cause, interrupts
  /// taken, LAPIC/PI activity — as read-only probes over the counters
  /// above (labels vm=<name>, vcpu=<index>). Zero hot-path cost.
  void register_metrics(MetricsRegistry& registry);

  /// Serializes mode, interrupt state (LAPIC/vAPIC), exit statistics and
  /// the vCPU thread's scheduling state. Embedded in the owning Vm's
  /// snapshot section.
  void snapshot_state(SnapshotWriter& w) const;

 private:
  enum class Mode { kHost, kGuest };

  void run_loop();  // thread main body
  void host_exec(Cycles cost, Callback<void()> done);
  void timed_exec(bool guest, Cycles cost, Callback<void()> done);

  /// Transitions guest->host for `cause`, runs handler work, then `then`.
  void vm_exit(ExitReason cause, Cycles handle_cost, Callback<void()> then);
  void vm_entry();

  /// Resumes the innermost suspended guest activity, or asks the guest OS
  /// for new work.
  void continue_in_guest();

  /// Suspends the active guest segment (if any) onto the stack.
  void suspend_guest_activity();

  /// Dispatches `vector` through the guest IDT (dispatch cost + handler).
  void dispatch_irq(Vector vector);

  void on_sched_in();
  void on_sched_out();
  void arm_noise_timer();
  void noise_tick();

  Vm& vm_;
  Simulator& sim_;
  int index_;
  SimThread thread_;
  Mode mode_ = Mode::kHost;
  bool halted_ = false;
  bool need_entry_on_resume_ = false;
  std::vector<PausedSegment> suspended_;
  EmulatedLapic lapic_;
  VApicPage vapic_;
  ExitStats stats_;
  std::int64_t irqs_taken_ = 0;
  std::int64_t eli_stalls_ = 0;
  std::int64_t eli_hazards_ = 0;
  int pinned_core_ = -1;
  std::uint64_t noise_seq_ = 0;
  EventHandle noise_timer_;
};

}  // namespace es2
