#include "es2/redirect.h"

#include "base/assert.h"

namespace es2 {

InterruptRedirector::InterruptRedirector(KvmHost& host, RedirectPolicy policy,
                                         std::uint64_t seed,
                                         bool per_queue_affinity)
    : host_(host),
      policy_(policy),
      rng_(Rng::stream(seed, "redirector")),
      per_queue_affinity_(per_queue_affinity) {
  host.router().set_interceptor(
      [this](Vm& vm, const MsiMessage& msg) -> int {
        if (!tracks(vm)) return -1;  // untracked VMs keep their affinity
        return select_target(vm, msg);
      });
}

void InterruptRedirector::track(Vm& vm) {
  if (tracks(vm)) return;
  trackers_.emplace(&vm, std::make_unique<VcpuStatusTracker>(vm));
}

bool InterruptRedirector::tracks(const Vm& vm) const {
  return trackers_.count(&vm) != 0;
}

VcpuStatusTracker& InterruptRedirector::tracker(Vm& vm) {
  const auto it = trackers_.find(&vm);
  ES2_CHECK_MSG(it != trackers_.end(), "VM is not tracked");
  return *it->second;
}

void InterruptRedirector::on_device_reset(Vm& vm) {
  if (!tracks(vm)) return;
  tracker(vm).set_sticky_target(-1);
  vector_sticky_.erase(&vm);
}

int InterruptRedirector::sticky_for(Vm& vm, const MsiMessage& msg) {
  if (!per_queue_affinity_) return tracker(vm).sticky_target();
  const auto vm_it = vector_sticky_.find(&vm);
  if (vm_it == vector_sticky_.end()) return -1;
  const auto it = vm_it->second.find(msg.vector);
  return it == vm_it->second.end() ? -1 : it->second;
}

void InterruptRedirector::set_sticky_for(Vm& vm, const MsiMessage& msg,
                                         int target) {
  if (!per_queue_affinity_) {
    tracker(vm).set_sticky_target(target);
    return;
  }
  vector_sticky_[&vm][msg.vector] = target;
}

int InterruptRedirector::select_target(Vm& vm, const MsiMessage& msg) {
  // UP VMs: redirection can have no effect (paper §IV-C, special case 1).
  if (vm.num_vcpus() <= 1) return msg.dest_vcpu;

  VcpuStatusTracker& t = tracker(vm);

  switch (policy_) {
    case RedirectPolicy::kPaper: {
      const int sticky = sticky_for(vm, msg);
      if (sticky >= 0 && t.is_online(sticky)) {
        ++via_sticky_;
        t.count_interrupt(sticky);
        return sticky;
      }
      const int lightest = t.lightest_online();
      if (lightest >= 0) {
        ++via_online_;
        set_sticky_for(vm, msg, lightest);
        t.count_interrupt(lightest);
        return lightest;
      }
      const int predicted = t.predict_next_online();
      if (predicted >= 0) {
        ++via_offline_;
        t.count_interrupt(predicted);
        return predicted;
      }
      return msg.dest_vcpu;
    }

    case RedirectPolicy::kNoSticky: {
      const int lightest = t.lightest_online();
      if (lightest >= 0) {
        ++via_online_;
        t.count_interrupt(lightest);
        return lightest;
      }
      const int predicted = t.predict_next_online();
      if (predicted >= 0) {
        ++via_offline_;
        t.count_interrupt(predicted);
        return predicted;
      }
      return msg.dest_vcpu;
    }

    case RedirectPolicy::kRoundRobin: {
      const auto& online = t.online();
      if (!online.empty()) {
        ++via_online_;
        const int v = online[rr_cursor_++ % online.size()];
        t.count_interrupt(v);
        return v;
      }
      const int predicted = t.predict_next_online();
      if (predicted >= 0) {
        ++via_offline_;
        t.count_interrupt(predicted);
        return predicted;
      }
      return msg.dest_vcpu;
    }

    case RedirectPolicy::kRandomOffline: {
      const int sticky = sticky_for(vm, msg);
      if (sticky >= 0 && t.is_online(sticky)) {
        ++via_sticky_;
        t.count_interrupt(sticky);
        return sticky;
      }
      const int lightest = t.lightest_online();
      if (lightest >= 0) {
        ++via_online_;
        set_sticky_for(vm, msg, lightest);
        t.count_interrupt(lightest);
        return lightest;
      }
      const auto& offline = t.offline();
      if (!offline.empty()) {
        ++via_offline_;
        const int v = offline[rng_.next_below(offline.size())];
        t.count_interrupt(v);
        return v;
      }
      return msg.dest_vcpu;
    }
  }
  ES2_UNREACHABLE("bad redirect policy");
}

void InterruptRedirector::snapshot_state(SnapshotWriter& w) const {
  snapshot_rng(w, rng_);
  w.put_u64(rr_cursor_);
  w.put_i64(via_sticky_);
  w.put_i64(via_online_);
  w.put_i64(via_offline_);
  // Walk VMs in host order; trackers_ is an unordered_map keyed by
  // pointer and must never drive serialization order.
  std::uint32_t tracked = 0;
  for (int i = 0; i < host_.num_vms(); ++i)
    if (tracks(host_.vm(i))) ++tracked;
  w.put_u32(tracked);
  for (int i = 0; i < host_.num_vms(); ++i) {
    Vm& vm = host_.vm(i);
    if (!tracks(vm)) continue;
    const auto& t = *trackers_.at(&vm);
    w.put_u32(static_cast<std::uint32_t>(vm.id()));
    w.put_u32(static_cast<std::uint32_t>(t.online().size()));
    for (int v : t.online()) w.put_u32(static_cast<std::uint32_t>(v));
    w.put_u32(static_cast<std::uint32_t>(t.offline().size()));
    for (int v : t.offline()) w.put_u32(static_cast<std::uint32_t>(v));
    w.put_u32(static_cast<std::uint32_t>(
        t.sticky_target() < 0 ? 0xFFFFFFFFu
                              : static_cast<unsigned>(t.sticky_target())));
    for (int v = 0; v < vm.num_vcpus(); ++v) w.put_i64(t.interrupts(v));
    w.put_i64(t.transitions());
  }
  // Per-queue affinity targets (empty unless the multi-queue affinity
  // extension is on). Same host-order walk; the per-VM vector map is
  // ordered by vector number.
  for (int i = 0; i < host_.num_vms(); ++i) {
    Vm& vm = host_.vm(i);
    if (!tracks(vm)) continue;
    const auto vm_it = vector_sticky_.find(&vm);
    const std::size_t entries =
        vm_it == vector_sticky_.end() ? 0 : vm_it->second.size();
    w.put_u32(static_cast<std::uint32_t>(entries));
    if (vm_it == vector_sticky_.end()) continue;
    for (const auto& [vector, target] : vm_it->second) {
      w.put_u32(static_cast<std::uint32_t>(vector));
      w.put_u32(static_cast<std::uint32_t>(target));
    }
  }
}

}  // namespace es2
