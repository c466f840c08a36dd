#include "trace/trace.h"

#include "base/assert.h"

namespace es2 {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kVmExit: return "vm_exit";
    case TraceKind::kVmEntry: return "vm_entry";
    case TraceKind::kIrqInject: return "irq_inject";
    case TraceKind::kKick: return "kick";
    case TraceKind::kKickSuppressed: return "kick_suppressed";
    case TraceKind::kKickDrop: return "kick_drop";
    case TraceKind::kWireRx: return "wire_rx";
    case TraceKind::kMsiRaise: return "msi_raise";
    case TraceKind::kMsiDrop: return "msi_drop";
    case TraceKind::kIrqSuppressed: return "irq_suppressed";
    case TraceKind::kPiPost: return "pi_post";
    case TraceKind::kPiCoalesced: return "pi_coalesced";
    case TraceKind::kLapicPost: return "lapic_post";
    case TraceKind::kIrqDispatch: return "irq_dispatch";
    case TraceKind::kEoi: return "eoi";
    case TraceKind::kSchedIn: return "sched_in";
    case TraceKind::kSchedOut: return "sched_out";
    case TraceKind::kWorkerWake: return "worker_wake";
    case TraceKind::kWorkerTurn: return "worker_turn";
    case TraceKind::kNotifyEnable: return "notify_enable";
    case TraceKind::kNotifyDisable: return "notify_disable";
    case TraceKind::kNapiPoll: return "napi_poll";
    case TraceKind::kWatchdogRecover: return "watchdog_recover";
    case TraceKind::kFaultInject: return "fault_inject";
    case TraceKind::kRingFault: return "ring_fault";
    case TraceKind::kQueueReset: return "queue_reset";
    case TraceKind::kDeviceReset: return "device_reset";
    case TraceKind::kRenegotiate: return "renegotiate";
    case TraceKind::kWorkerCrash: return "worker_crash";
    case TraceKind::kWorkerRestart: return "worker_restart";
    case TraceKind::kRecovered: return "recovered";
    case TraceKind::kCount: break;
  }
  return "?";
}

std::uint32_t trace_thread_tag(std::string_view name) {
  std::uint32_t h = 2166136261u;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  return h;
}

Tracer::Tracer(TraceOptions options)
    : capacity_(options.capacity > 0 ? options.capacity : 1) {}

void Tracer::grow() {
  // Back the next ring region with a fresh slab. Only reached while the
  // ring warms up (emit indices are sequential modulo capacity, so once
  // every slot has been written the ring recycles slabs forever).
  const std::size_t remaining = capacity_ - allocated_;
  const std::size_t size = remaining < kSlabSize ? remaining : kSlabSize;
  slabs_.push_back(std::make_unique<TraceRecord[]>(kSlabSize));
  allocated_ += size;
}

void Tracer::emit(SimTime t, TraceKind kind, int vm, int vcpu, int cpu,
                  std::uint32_t arg, std::uint64_t corr) {
  const std::size_t index = static_cast<std::size_t>(total_ % capacity_);
  if (index >= allocated_) grow();
  TraceRecord& r = slot(index);
  r.t = t;
  r.corr = corr;
  r.arg = arg;
  r.kind = kind;
  r.cpu = static_cast<std::int8_t>(cpu);
  r.vm = static_cast<std::int8_t>(vm);
  r.vcpu = static_cast<std::int8_t>(vcpu);
  ++total_;
  if (corr != 0) last_corr_ = corr;
}

std::vector<TraceRecord> Tracer::snapshot() const {
  std::vector<TraceRecord> out;
  const std::uint64_t held = total_ < capacity_ ? total_ : capacity_;
  out.reserve(static_cast<std::size_t>(held));
  // Oldest surviving record first: once wrapped, that is the slot the next
  // emit would overwrite.
  const std::uint64_t first = total_ - held;
  for (std::uint64_t i = 0; i < held; ++i) {
    const std::size_t index =
        static_cast<std::size_t>((first + i) % capacity_);
    out.push_back(slabs_[index / kSlabSize][index % kSlabSize]);
  }
  return out;
}

void Tracer::remember_vector(int vm, int vcpu, int vector,
                             std::uint64_t corr) {
  const int ctx = ctx_index(vm, vcpu);
  if (ctx < 0 || vector < 0 || vector >= kNumVectors) return;
  const std::size_t index =
      static_cast<std::size_t>(ctx) * kNumVectors + static_cast<std::size_t>(vector);
  if (index >= vector_corr_.size()) vector_corr_.resize(index + 1, 0);
  vector_corr_[index] = corr;
}

std::uint64_t Tracer::vector_corr(int vm, int vcpu, int vector) const {
  const int ctx = ctx_index(vm, vcpu);
  if (ctx < 0 || vector < 0 || vector >= kNumVectors) return 0;
  const std::size_t index =
      static_cast<std::size_t>(ctx) * kNumVectors + static_cast<std::size_t>(vector);
  return index < vector_corr_.size() ? vector_corr_[index] : 0;
}

std::uint64_t Tracer::take_vector_corr(int vm, int vcpu, int vector) {
  const int ctx = ctx_index(vm, vcpu);
  if (ctx < 0 || vector < 0 || vector >= kNumVectors) return 0;
  const std::size_t index =
      static_cast<std::size_t>(ctx) * kNumVectors + static_cast<std::size_t>(vector);
  if (index >= vector_corr_.size()) return 0;
  const std::uint64_t corr = vector_corr_[index];
  vector_corr_[index] = 0;
  return corr;
}

void Tracer::push_service(int vm, int vcpu, std::uint64_t corr) {
  const int ctx = ctx_index(vm, vcpu);
  if (ctx < 0) return;
  if (static_cast<std::size_t>(ctx) >= service_.size()) {
    service_.resize(static_cast<std::size_t>(ctx) + 1);
  }
  service_[static_cast<std::size_t>(ctx)].push_back(corr);
}

std::uint64_t Tracer::current_service(int vm, int vcpu) const {
  const int ctx = ctx_index(vm, vcpu);
  if (ctx < 0 || static_cast<std::size_t>(ctx) >= service_.size()) return 0;
  const auto& stack = service_[static_cast<std::size_t>(ctx)];
  return stack.empty() ? 0 : stack.back();
}

std::uint64_t Tracer::pop_service(int vm, int vcpu) {
  const int ctx = ctx_index(vm, vcpu);
  if (ctx < 0 || static_cast<std::size_t>(ctx) >= service_.size()) return 0;
  auto& stack = service_[static_cast<std::size_t>(ctx)];
  if (stack.empty()) return 0;
  const std::uint64_t corr = stack.back();
  stack.pop_back();
  return corr;
}

}  // namespace es2
