// vCPU scheduling-status tracker (paper §IV-C / §V-B).
//
// ES2 "establishes an information channel to the vCPU scheduler": this
// class subscribes to the per-thread preemption notifiers (the analogue of
// KVM's kvm_sched_in / kvm_sched_out) and maintains, per VM:
//
//   * the *online* list — vCPUs currently running on a physical core;
//   * the *offline* list — descheduled vCPUs, ordered by deschedule time
//     (head = offline the longest = predicted to regain the CPU first);
//   * a per-vCPU processed-interrupt count for load balancing;
//   * the sticky redirection target (kept until it is descheduled, for
//     cache affinity).
//
// The real implementation must synchronize these lists across cores; the
// simulation is single-threaded per host, so the lock is conceptual — but
// update ordering is kept identical to the paper's description.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/vm.h"

namespace es2 {

class VcpuStatusTracker {
 public:
  explicit VcpuStatusTracker(Vm& vm);
  VcpuStatusTracker(const VcpuStatusTracker&) = delete;
  VcpuStatusTracker& operator=(const VcpuStatusTracker&) = delete;

  Vm& vm() { return vm_; }

  /// vCPU indices currently running on a core (unordered).
  const std::vector<int>& online() const { return online_; }

  /// Deschedule-ordered offline list (front = longest offline).
  const std::vector<int>& offline() const { return offline_; }

  bool is_online(int vcpu) const;

  /// The paper's offline prediction: the vCPU that has been offline the
  /// longest, i.e. the head of the offline list. Returns -1 if none.
  int predict_next_online() const {
    return offline_.empty() ? -1 : offline_.front();
  }

  /// The online vCPU with the fewest processed interrupts, or -1.
  int lightest_online() const;

  /// Current sticky target (-1 when unset).
  int sticky_target() const { return sticky_target_; }
  void set_sticky_target(int vcpu) { sticky_target_ = vcpu; }

  void count_interrupt(int vcpu);
  std::int64_t interrupts(int vcpu) const {
    return irq_counts_[static_cast<size_t>(vcpu)];
  }

  std::int64_t transitions() const { return transitions_; }

 private:
  void on_sched(int vcpu, bool in);

  Vm& vm_;
  // Both reserved for every vCPU up front: sched in/out never allocates.
  std::vector<int> online_;
  std::vector<int> offline_;
  std::vector<std::int64_t> irq_counts_;
  int sticky_target_ = -1;
  std::int64_t transitions_ = 0;
};

}  // namespace es2
