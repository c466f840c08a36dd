// ES2 configuration axes — the four stacks of the paper's evaluation:
//
//   Baseline : emulated LAPIC, stock vhost, affinity routing
//   PI       : + posted interrupts (exit-less delivery & completion)
//   PI+H     : + Hybrid I/O Handling (Algorithm 1, quota polling)
//   PI+H+R   : + Intelligent Interrupt Redirection  — full ES2
#pragma once

#include <string>

#include "vm/vcpu.h"

namespace es2 {

/// Redirection target policies (the paper's policy plus ablation variants).
enum class RedirectPolicy {
  kPaper,          // lightest-loaded online vCPU, sticky until descheduled;
                   // offline fallback = head of deschedule-ordered list
  kNoSticky,       // lightest-loaded online vCPU on every interrupt
  kRoundRobin,     // rotate over online vCPUs
  kRandomOffline,  // paper online policy, random offline prediction
};

/// Hybrid I/O Handling's (paper §IV-B) empirically selected Algorithm 1
/// quotas: 4 for TCP-dominated and 8 for UDP-dominated workloads.
inline constexpr int kQuotaTcp = 4;
inline constexpr int kQuotaUdp = 8;

struct Es2Config {
  bool posted_interrupts = false;
  bool hybrid_io = false;
  bool redirection = false;
  /// Algorithm 1 quota (the vhost poll_quota module parameter).
  int poll_quota = kQuotaTcp;
  RedirectPolicy policy = RedirectPolicy::kPaper;
  /// Multi-queue extension: give each MSI vector its own sticky steering
  /// target instead of one per VM, so a multi-queue device's pairs settle
  /// on distinct vCPUs. Off by default — single-queue stacks are unchanged.
  bool per_queue_affinity = false;

  static Es2Config baseline() { return {}; }
  static Es2Config pi() {
    return {true, false, false, kQuotaTcp, RedirectPolicy::kPaper};
  }
  static Es2Config pi_h(int quota = kQuotaTcp) {
    return {true, true, false, quota, RedirectPolicy::kPaper};
  }
  static Es2Config pi_h_r(int quota = kQuotaTcp) {
    return {true, true, true, quota, RedirectPolicy::kPaper};
  }
  /// All four stacks in the paper's presentation order.
  static const Es2Config* all4();

  InterruptVirtMode irq_mode() const {
    return posted_interrupts ? InterruptVirtMode::kPostedInterrupt
                             : InterruptVirtMode::kEmulatedLapic;
  }

  std::string name() const;
};

}  // namespace es2
