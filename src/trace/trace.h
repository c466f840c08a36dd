// Event-path tracer: typed per-event records on the virtual I/O path.
//
// A `Tracer` captures one record per interesting event — VM exits by
// cause, eventfd kicks, MSI/PI posts, LAPIC/vAPIC injection, EOI writes,
// CFS sched_in/out, vhost worker wake/turns, virtqueue notify-suppress
// decisions — each stamped `(sim_time, cpu, vm, vcpu, cause,
// correlation_id)`. Records land in a slab ring buffer with the same
// discipline as the event core: slabs are allocated once while the ring
// warms up and then recycled forever, so the steady-state emit path
// performs zero heap allocations.
//
// Tracing is passive by design: a Tracer draws no RNG numbers, schedules
// no events and never touches model state, so attaching one cannot
// perturb a run (asserted by tests). The instrumentation call sites are
// compiled into every build, each one null test on the simulator's
// tracer pointer: a run with no tracer attached records nothing and
// keeps its goldens bit-identical.
//
// Correlation ids stitch one I/O request's journey across the async
// layers. The id is minted at the journey's origin (guest kick / wire
// arrival) and handed forward through three tiny registers:
//
//   * per-queue kick registers (owned by the vhost backend) carry the id
//     from kick to worker turn to MSI raise;
//   * `set_inflight`/`take_inflight` carries it across the synchronous
//     raise_msi -> IrqRouter -> Vcpu::deliver_interrupt call chain;
//   * a per-(vm,vcpu,vector) map carries it from interrupt post to the
//     (possibly much later) injection/dispatch, and a per-vcpu service
//     stack carries it from dispatch to the matching EOI, nesting
//     included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "base/units.h"

namespace es2 {

enum class TraceKind : std::uint8_t {
  kVmExit = 0,       // arg = ExitReason
  kVmEntry,          // arg = injected vector, or 0xffffffff when none
  kIrqInject,        // Baseline: vector injected during VM entry
  kKick,             // guest kick (ioeventfd signal); arg = flat queue
                     // index 2*pair+dir (dir 0=tx, 1=rx refill)
  kKickSuppressed,   // EVENT_IDX said no kick needed; arg: 0=tx 1=rx-refill
  kKickDrop,         // fault injector swallowed the kick
  kWireRx,           // packet arrived from the wire; arg = queue pair
  kMsiRaise,         // backend raised an MSI; arg = vector
  kMsiDrop,          // fault injector swallowed the MSI; arg = vector
  kIrqSuppressed,    // EVENT_IDX said no interrupt needed; arg = flat
                     // queue index 2*pair+dir
  kPiPost,           // posted-interrupt/direct PIR post; arg = vector
  kPiCoalesced,      // PIR post coalesced by the ON bit; arg = vector
  kLapicPost,        // emulated-LAPIC IRR post; arg = vector
  kIrqDispatch,      // vector dispatched through the guest IDT; arg = vector
  kEoi,              // guest EOI write (trapping or virtual)
  kSchedIn,          // CFS scheduled a thread onto a core; arg = thread tag
  kSchedOut,         // CFS descheduled a thread; arg = thread tag
  kWorkerWake,       // vhost worker activated (handler queued)
  kWorkerTurn,       // a virtqueue handler starts a turn; arg = flat
                     // queue index 2*pair+dir
  kNotifyEnable,     // notifications/interrupts re-armed; arg: queue code
  kNotifyDisable,    // notifications/interrupts masked; arg: queue code
  kNapiPoll,         // guest NAPI poll pass starts
  kWatchdogRecover,  // netdev watchdog recovery; arg: 0=tx-rekick 1=rx-poll
  kFaultInject,      // lifecycle fault injected; arg = LifecycleFault
  kRingFault,        // ring-integrity fault detected; arg = RingFault
  kQueueReset,       // single-queue reset+re-enable; arg = flat queue index
  kDeviceReset,      // full device reset (status -> 0)
  kRenegotiate,      // renegotiation complete (DRIVER_OK); arg = feature bits
  kWorkerCrash,      // vhost worker crashed; arg = restart delay (ns)
  kWorkerRestart,    // vhost worker restarted
  kRecovered,        // lifecycle fault recovered; arg = RecoveryRung
  kCount
};

/// Stable lowercase name for exporters ("vm_exit", "kick", ...).
const char* trace_kind_name(TraceKind kind);

/// The thread tag kSchedIn/kSchedOut records carry in `arg`: FNV-1a-32 of
/// the thread name. Names are deterministic where thread ids (a process-
/// global counter) are not, so same-seed traces stay byte-identical.
std::uint32_t trace_thread_tag(std::string_view name);

/// One trace record. 24 bytes, trivially copyable; the ring stores these
/// by value.
struct TraceRecord {
  SimTime t = 0;
  std::uint64_t corr = 0;       // journey correlation id; 0 = uncorrelated
  std::uint32_t arg = 0;        // kind-specific payload (cause/vector/...)
  TraceKind kind = TraceKind::kVmExit;
  std::int8_t cpu = -1;         // physical core, -1 when off-core
  std::int8_t vm = -1;          // -1 for host-side records
  std::int8_t vcpu = -1;

  bool operator==(const TraceRecord&) const = default;
};
static_assert(sizeof(TraceRecord) == 24, "TraceRecord grew past 24 bytes");

struct TraceOptions {
  /// Request tracing for this run (harness convenience; the Testbed only
  /// constructs a Tracer when set).
  bool enabled = false;
  /// Ring capacity in records; once full the ring overwrites the oldest.
  std::size_t capacity = std::size_t{1} << 16;
};

class Tracer {
 public:
  explicit Tracer(TraceOptions options = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends a record. Zero allocations once the ring has warmed up to
  /// its capacity (slabs are only ever added, never freed or moved).
  void emit(SimTime t, TraceKind kind, int vm, int vcpu, int cpu,
            std::uint32_t arg = 0, std::uint64_t corr = 0);

  /// Records currently held, oldest first (at most `capacity`).
  std::vector<TraceRecord> snapshot() const;

  /// Total records emitted (including overwritten ones).
  std::uint64_t emitted() const { return total_; }
  /// Records lost to ring wraparound.
  std::uint64_t dropped() const {
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }
  std::size_t capacity() const { return capacity_; }

  // --- correlation-id plumbing (all O(1), allocation-free once warm) ----

  /// Mints a fresh journey id (ids start at 1; 0 means "no journey").
  std::uint64_t begin_journey() { return ++corr_seq_; }

  /// Most recent correlation id seen by emit(); audit/watchdog reports use
  /// it to point at the journey nearest a detected violation.
  std::uint64_t last_corr() const { return last_corr_; }

  /// Register carrying a journey across a synchronous call chain
  /// (raise_msi -> router -> deliver_interrupt).
  void set_inflight(std::uint64_t corr) { inflight_ = corr; }
  std::uint64_t take_inflight() {
    const std::uint64_t c = inflight_;
    inflight_ = 0;
    return c;
  }

  /// Pending-delivery map: post time -> injection/dispatch time, keyed by
  /// (vm, vcpu, vector). take_* consumes the entry.
  void remember_vector(int vm, int vcpu, int vector, std::uint64_t corr);
  std::uint64_t vector_corr(int vm, int vcpu, int vector) const;
  std::uint64_t take_vector_corr(int vm, int vcpu, int vector);

  /// Per-vcpu in-service stack: pushed at dispatch, popped at EOI, so
  /// nested interrupts resolve to the right journey.
  void push_service(int vm, int vcpu, std::uint64_t corr);
  std::uint64_t current_service(int vm, int vcpu) const;
  std::uint64_t pop_service(int vm, int vcpu);

 private:
  static constexpr std::size_t kSlabSize = 4096;
  static constexpr int kMaxVcpusPerVm = 16;
  static constexpr int kNumVectors = 256;

  TraceRecord& slot(std::size_t index) {
    return slabs_[index / kSlabSize][index % kSlabSize];
  }
  void grow();
  static int ctx_index(int vm, int vcpu) {
    if (vm < 0 || vcpu < 0 || vcpu >= kMaxVcpusPerVm) return -1;
    return vm * kMaxVcpusPerVm + vcpu;
  }

  std::size_t capacity_;
  std::size_t allocated_ = 0;  // slots backed by slabs so far
  std::uint64_t total_ = 0;    // records emitted (monotonic)
  std::vector<std::unique_ptr<TraceRecord[]>> slabs_;

  std::uint64_t corr_seq_ = 0;
  std::uint64_t inflight_ = 0;
  std::uint64_t last_corr_ = 0;
  // Flat (vm,vcpu,vector) -> corr map and per-(vm,vcpu) service stacks,
  // grown on first touch and reused for the rest of the run.
  std::vector<std::uint64_t> vector_corr_;
  std::vector<std::vector<std::uint64_t>> service_;
};

}  // namespace es2
