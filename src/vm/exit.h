// VM-exit taxonomy and perf-kvm-style accounting.
//
// The paper's measurements (Table I, Fig. 5) are breakdowns of VM exits by
// cause plus the time-in-guest (TIG) percentage. `ExitStats` reproduces the
// perf-kvm view: a counter per cause and guest/host time integration, with
// a resettable measurement window.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "base/units.h"
#include "stats/meters.h"

namespace es2 {

class SnapshotWriter;

enum class ExitReason : int {
  kExternalInterrupt = 0,  // interrupt arrived while in guest mode (IPI kick,
                           // host timer tick, …)
  kApicAccess,             // guest Local-APIC access trapped (EOI write)
  kIoInstruction,          // guest I/O request notification (virtqueue kick)
  kHlt,                    // guest executed HLT
  kEptViolation,           // two-dimensional paging fault
  kPendingInterrupt,       // interrupt-window exit
  kMsrAccess,              // trapped MSR read/write
  kOther,
  kCount,
};

inline constexpr int kNumExitReasons = static_cast<int>(ExitReason::kCount);

const char* exit_reason_name(ExitReason reason);

/// True for causes the paper folds into its "Others" bucket.
bool is_other_bucket(ExitReason reason);

class ExitStats {
 public:
  void record_exit(ExitReason reason) {
    counts_[static_cast<size_t>(reason)] += 1;
    ++total_;
  }

  /// Accrues vCPU time spent in guest or host context: the vCPU thread
  /// adds each completed segment's span to it (SimThread::exec).
  SpanAccumulator& spans() { return spans_; }

  /// Starts a measurement window at `now` (typically after warmup).
  void begin_window(SimTime now);

  std::int64_t count(ExitReason reason) const {
    return counts_[static_cast<size_t>(reason)] -
           window_base_[static_cast<size_t>(reason)];
  }
  std::int64_t total() const { return total_ - window_total_base_; }

  /// Cumulative counts since construction, ignoring the measurement
  /// window — what the metrics registry samples (monotone time-series).
  std::int64_t lifetime_count(ExitReason reason) const {
    return counts_[static_cast<size_t>(reason)];
  }
  std::int64_t lifetime_total() const { return total_; }

  /// Exits per second for one cause over the window ending at `now`.
  double rate(ExitReason reason, SimTime now) const;
  double total_rate(SimTime now) const;

  /// Paper-style grouping: delivery/completion/io/others rates.
  double others_rate(SimTime now) const;

  /// Time-in-guest percentage over accounted vCPU time in the window.
  double tig_percent() const { return spans_.tig_percent(); }
  SimDuration guest_time() const { return spans_.guest_time(); }
  SimDuration host_time() const { return spans_.host_time(); }

  void merge(const ExitStats& other);

  std::string summary(SimTime now) const;

  /// Serializes lifetime counts, window bases and guest/host time spans.
  void snapshot_state(SnapshotWriter& w) const;

 private:
  SimDuration window(SimTime now) const { return now - window_start_; }

  std::array<std::int64_t, kNumExitReasons> counts_{};
  std::array<std::int64_t, kNumExitReasons> window_base_{};
  std::int64_t total_ = 0;
  std::int64_t window_total_base_ = 0;
  SimTime window_start_ = 0;
  SpanAccumulator spans_;
};

}  // namespace es2
