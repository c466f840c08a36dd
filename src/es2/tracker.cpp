#include "es2/tracker.h"

#include <algorithm>

#include "base/assert.h"

namespace es2 {

VcpuStatusTracker::VcpuStatusTracker(Vm& vm)
    : vm_(vm), irq_counts_(static_cast<size_t>(vm.num_vcpus()), 0) {
  online_.reserve(static_cast<size_t>(vm.num_vcpus()));
  offline_.reserve(static_cast<size_t>(vm.num_vcpus()));
  // All vCPUs start offline, ordered by index (deterministic bootstrap).
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    offline_.push_back(i);
    vm.vcpu(i).thread().add_notifier(
        [this, i](SimThread&, bool in) { on_sched(i, in); });
  }
}

bool VcpuStatusTracker::is_online(int vcpu) const {
  return std::find(online_.begin(), online_.end(), vcpu) != online_.end();
}

int VcpuStatusTracker::lightest_online() const {
  int best = -1;
  std::int64_t best_count = 0;
  for (const int v : online_) {
    const std::int64_t c = irq_counts_[static_cast<size_t>(v)];
    if (best < 0 || c < best_count || (c == best_count && v < best)) {
      best = v;
      best_count = c;
    }
  }
  return best;
}

void VcpuStatusTracker::count_interrupt(int vcpu) {
  ES2_CHECK(vcpu >= 0 && vcpu < vm_.num_vcpus());
  ++irq_counts_[static_cast<size_t>(vcpu)];
}

void VcpuStatusTracker::on_sched(int vcpu, bool in) {
  ++transitions_;
  if (in) {
    // offline -> online.
    const auto it = std::find(offline_.begin(), offline_.end(), vcpu);
    if (it != offline_.end()) offline_.erase(it);
    if (!is_online(vcpu)) online_.push_back(vcpu);
    return;
  }
  // online -> offline: append at the tail, recording deschedule order.
  const auto it = std::find(online_.begin(), online_.end(), vcpu);
  if (it != online_.end()) online_.erase(it);
  offline_.push_back(vcpu);
  // The paper keeps redirecting to a target only until it is descheduled.
  if (sticky_target_ == vcpu) sticky_target_ = -1;
}

}  // namespace es2
