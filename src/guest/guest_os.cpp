#include "guest/guest_os.h"

#include <algorithm>

#include "base/assert.h"
#include "guest/virtio_net.h"
#include "metrics/metrics.h"

namespace es2 {

// ---------------------------------------------------------------------------
// GuestTask
// ---------------------------------------------------------------------------

GuestTask::GuestTask(GuestOs& os, std::string name, int vcpu_affinity,
                     bool low_priority)
    : os_(os),
      name_(std::move(name)),
      vcpu_affinity_(vcpu_affinity),
      low_priority_(low_priority) {
  ES2_CHECK(vcpu_affinity >= 0 && vcpu_affinity < os.vm().num_vcpus());
}

void GuestTask::wake() {
  if (runnable_) return;
  runnable_ = true;
  os_.wake_vcpu_for_task(*this);
}

// ---------------------------------------------------------------------------
// GuestOs
// ---------------------------------------------------------------------------

GuestOs::GuestOs(Vm& vm, GuestParams params)
    : vm_(vm), params_(params),
      rng_(vm.host().sim().make_rng("guest/" + vm.name())),
      vcpu_tasks_(static_cast<size_t>(vm.num_vcpus())) {
  vm.set_guest(this);
}

Cycles GuestOs::jittered(Cycles cost) {
  if (params_.cost_jitter <= 0) return cost;
  const double f =
      1.0 + params_.cost_jitter * (2.0 * rng_.next_double() - 1.0);
  return static_cast<Cycles>(static_cast<double>(cost) * f);
}

GuestOs::~GuestOs() = default;

void GuestOs::add_task(GuestTask& task) {
  ES2_CHECK_MSG(task.next_on_vcpu_ == nullptr, "task added twice");
  task.index_ = tasks_.size();
  tasks_.push_back(&task);
  VcpuTasks& v = vcpu_tasks_[static_cast<size_t>(task.vcpu_affinity())];
  if (v.tail != nullptr) {
    v.tail->next_on_vcpu_ = &task;
  } else {
    v.head = &task;
  }
  v.tail = &task;
  task.next_on_vcpu_ = v.head;
}

void GuestOs::attach_netdev(VirtioNetFrontend& dev) {
  netdevs_.push_back(&dev);
}

void GuestOs::register_flow(std::uint64_t flow, FlowSink& sink) {
  flows_[flow] = &sink;
}

GuestTask* GuestOs::pick_task(int vcpu_index) {
  VcpuTasks& v = vcpu_tasks_[static_cast<size_t>(vcpu_index)];
  if (v.head == nullptr) return nullptr;
  GuestTask* const cursor_task =
      v.cursor < tasks_.size() ? tasks_[v.cursor] : nullptr;
  GuestTask* const start =
      cursor_task != nullptr && cursor_task->vcpu_affinity() == vcpu_index
          ? cursor_task->next_on_vcpu_
          : v.head;
  GuestTask* burn = nullptr;
  GuestTask* t = start;
  do {
    if (t->runnable()) {
      if (!t->low_priority()) {
        v.cursor = t->index_;
        return t;
      }
      if (burn == nullptr) burn = t;
    }
    t = t->next_on_vcpu_;
  } while (t != start);
  return burn;
}

void GuestOs::run(int vcpu_index) {
  Vcpu& vcpu = vm_.vcpu(vcpu_index);
  GuestTask* task = pick_task(vcpu_index);
  if (task == nullptr) {
    // Idle: the guest executes HLT; the vCPU blocks until an interrupt.
    vcpu.guest_halt();
    return;
  }
  vcpu.guest_exec(params_.task_switch,
                  [task, &vcpu] { task->run_unit(vcpu); });
}

void GuestOs::task_done(Vcpu& vcpu) { run(vcpu.index()); }

void GuestOs::wake_vcpu_for_task(const GuestTask& task) {
  // If the task's CPU idles in HLT, a resched IPI (a per-vCPU interrupt
  // that must never be redirected) pulls it out of the idle loop.
  Vcpu& vcpu = vm_.vcpu(task.vcpu_affinity());
  if (vcpu.halted()) vcpu.deliver_interrupt(kRescheduleIpiVector);
}

void GuestOs::take_interrupt(int vcpu_index, Vector vector) {
  Vcpu& vcpu = vm_.vcpu(vcpu_index);
  for (VirtioNetFrontend* dev : netdevs_) {
    if (dev->owns_vector(vector)) {
      dev->handle_irq(vcpu, vector);
      return;
    }
  }
  if (vector == kLocalTimerVector) {
    // The tick body also drives the netdev TX watchdog (dev_watchdog runs
    // off the timer in Linux too); on healthy paths that is a pure state
    // check costing no extra guest cycles.
    vcpu.guest_exec(params_.timer_handler,
                    [this, &vcpu] { netdev_watchdog_tick(vcpu, 0); });
    return;
  }
  if (vector == kRescheduleIpiVector || vector == kCallFunctionIpiVector) {
    vcpu.guest_exec(params_.resched_ipi_handler, [&vcpu] {
      vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
    });
    return;
  }
  // Unknown vector: a real guest would report a spurious interrupt.
  vcpu.guest_exec(params_.resched_ipi_handler, [&vcpu] {
    vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
  });
}

void GuestOs::netdev_watchdog_tick(Vcpu& vcpu, std::size_t i) {
  if (i >= netdevs_.size()) {
    vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
    return;
  }
  netdevs_[i]->tx_watchdog_tick(
      vcpu, [this, &vcpu, i] { netdev_watchdog_tick(vcpu, i + 1); });
}

void GuestOs::deliver_to_stack(Vcpu& vcpu, const PacketPtr& packet,
                               Callback<void()> done) {
  const auto it = flows_.find(packet->flow);
  if (it == flows_.end()) {
    ++unknown_flow_;
    done();
    return;
  }
  it->second->on_packet(vcpu, packet, std::move(done));
}

void GuestOs::register_metrics(MetricsRegistry& registry) {
  registry.probe("guest.unknown_flow_packets", {{"vm", vm_.name()}}, [this] {
    return static_cast<double>(unknown_flow_);
  });
  for (VirtioNetFrontend* dev : netdevs_) dev->register_metrics(registry);
}

void GuestOs::snapshot_state(SnapshotWriter& w) const {
  snapshot_rng(w, rng_);
  w.put_i64(unknown_flow_);
  w.put_i64(app_progress_);
  w.put_u32(static_cast<std::uint32_t>(vcpu_tasks_.size()));
  for (const VcpuTasks& v : vcpu_tasks_) w.put_u64(v.cursor);
  w.put_u32(static_cast<std::uint32_t>(tasks_.size()));
  for (const GuestTask* t : tasks_) {
    w.put_string(t->name());
    w.put_bool(t->runnable());
    w.put_bool(t->low_priority());
  }
  std::vector<std::uint64_t> flow_ids;
  flow_ids.reserve(flows_.size());
  for (const auto& [flow, sink] : flows_) flow_ids.push_back(flow);
  std::sort(flow_ids.begin(), flow_ids.end());
  w.put_u32(static_cast<std::uint32_t>(flow_ids.size()));
  for (std::uint64_t f : flow_ids) w.put_u64(f);
  w.put_u32(static_cast<std::uint32_t>(netdevs_.size()));
  for (const VirtioNetFrontend* dev : netdevs_) dev->snapshot_state(w);
}

}  // namespace es2
