// Lifecycle-fault instance ledger and MTTR accounting.
//
// Every injected lifecycle fault (ring corruption, torn avail-idx, wedged
// handler, crashed worker) opens a FaultInstance here; the first forward
// progress on the faulted scope after injection closes it. Because each
// fault mode stops progress on its scope by construction, time-to-first-
// progress IS the mean-time-to-recovery, measured in sim time with no
// extra events and no RNG draws (the ledger is passive: progress hooks do
// integer bookkeeping only).
//
// The recovery ladder reports which rung it pulled via note_action, so a
// closed instance records both its MTTR and the mechanism that cleared it.
// Instances still open at scenario end are the "silent wedge" signal: the
// harness turns them into structured WATCHDOG-style reports with the
// instance's trace correlation id — zero silent wedges means this list is
// empty or every entry is reported.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "base/units.h"
#include "snapshot/snapshot.h"
#include "virtio/device_status.h"

namespace es2 {

class MetricsRegistry;
class Histogram;

/// Fault scopes: a single queue, or the whole worker/device. Worker-scope
/// instances are closed by progress on either queue (the worker serving
/// anything proves it restarted); queue-scope instances only by progress
/// on their own queue. App scope covers receive livelock: packets flow the
/// whole time, so only application-level progress (an accept, a served
/// request) may close the instance — queue/worker progress never does.
inline constexpr int kScopeTx = 0;
inline constexpr int kScopeRx = 1;
inline constexpr int kScopeWorker = 2;
inline constexpr int kScopeApp = 3;

struct FaultInstance {
  std::int64_t id = 0;
  LifecycleFault mode = LifecycleFault::kDescCorrupt;
  int scope = kScopeTx;
  SimTime injected_at = 0;
  SimTime recovered_at = -1;
  RecoveryRung rung = RecoveryRung::kGuestWatchdog;
  bool rung_known = false;
  std::uint64_t corr = 0;  // trace correlation id (instance id if untraced)

  bool recovered() const { return recovered_at >= 0; }
  SimDuration mttr() const {
    return recovered() ? recovered_at - injected_at : -1;
  }
};

class RecoveryLog : public Snapshottable {
 public:
  /// Opens an instance; returns its id. `corr` of 0 substitutes the id so
  /// reports always carry a correlation handle.
  std::int64_t open(LifecycleFault mode, int scope, SimTime now,
                    std::uint64_t corr);

  /// Records a recovery action (ladder rung) against every open instance
  /// whose scope overlaps `scope`.
  void note_action(RecoveryRung rung, int scope);

  /// First matching progress after injection closes the instance and
  /// records its MTTR; returns how many instances closed. O(1) when
  /// nothing is open (the hot-path case: called per completed descriptor).
  int note_progress(int scope, SimTime now);

  const std::vector<FaultInstance>& instances() const { return instances_; }
  int open_count() const { return open_; }
  std::int64_t injected(LifecycleFault mode) const;
  std::int64_t recovered(LifecycleFault mode) const;

  /// MTTR distribution over recovered instances, all modes merged
  /// (sim-ns); per-mode histograms live in the registry when attached.
  const std::vector<SimDuration>& mttrs() const { return mttrs_; }

  /// Per-rung action counts (index = RecoveryRung).
  std::int64_t actions(RecoveryRung rung) const {
    return actions_[static_cast<std::size_t>(rung)];
  }

  /// Registers injected/recovered/open probes plus per-mode
  /// recovery.mttr_ns histograms (recorded at close time).
  void register_metrics(MetricsRegistry& registry);

  /// Serializes the full ledger except the trace correlation ids
  /// (Snapshottable shape; the testbed builds and registers the ledger
  /// only when lifecycle faults or overload mitigation are armed).
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  static bool scopes_overlap(int a, int b) {
    // App scope is deliberately narrow: during a livelock the dataplane
    // scopes make constant progress, so only app progress may match.
    if (a == kScopeApp || b == kScopeApp) return a == b;
    return a == b || a == kScopeWorker || b == kScopeWorker;
  }

  std::vector<FaultInstance> instances_;
  std::vector<SimDuration> mttrs_;
  int open_ = 0;
  std::array<std::int64_t, static_cast<std::size_t>(RecoveryRung::kCount)>
      actions_ = {};
  std::array<Histogram*, static_cast<std::size_t>(LifecycleFault::kCount)>
      mttr_hist_ = {};
};

}  // namespace es2
