// Critical-path latency attribution ("blame") over event-path traces.
//
// The PR 3 span builder reduces a journey to landmark timestamps and
// reports per-stage p50/p99 — it can say a journey was slow between kick
// and backend turn, but not *why*. The blame analyzer goes one level
// deeper: it partitions every complete kick→backend→MSI→dispatch→EOI
// journey into consecutive integer-nanosecond segments, each attributed
// to a named component of the virtual I/O event path:
//
//   notify_wake      kick/wire arrival -> vhost worker activation
//   sched_delay      worker activation -> worker thread on-core (CFS)
//   queue_wait       remaining origin->turn time (handler queued behind
//                    other virtqueues / poll-loop cadence)
//   backend_service  handler turn -> interrupt decision (copy + used ring)
//   suppression      EVENT_IDX window: suppressed-irq decision -> MSI raise
//   vcpu_wait        MSI raise -> destination vCPU on-core (CFS)
//   msi_delivery     remaining msi->dispatch time (route + inject)
//   guest_service    dispatch -> EOI (guest ISR + NAPI until completion)
//
// The partition is exact by construction: segment durations are computed
// as differences of a monotone cut sequence over [origin, eoi], so their
// integer sum equals the journey total — the "fractions sum to 1"
// invariant tests assert to 1e-9 is really exact integer arithmetic.
// Components classify as wait (notify_wake, sched_delay, queue_wait,
// suppression, vcpu_wait) vs service (the rest); "tail blame" is the
// per-component share of total journey time, with per-component
// histograms for distribution shape and a worst-journeys ledger that
// keeps the full cut sequence of any journey beyond k×p99.
//
// The journeys and their landmarks come from the span builder
// (trace/span.h), which the caller runs once per record snapshot; this is
// an offline pass — nothing here runs on the simulation hot path.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace es2 {

enum class BlameComponent : std::uint8_t {
  kNotifyWake = 0,
  kSchedDelay,
  kQueueWait,
  kBackendService,
  kSuppression,
  kVcpuWait,
  kMsiDelivery,
  kGuestService,
  kCount
};

inline constexpr std::size_t kBlameComponents =
    static_cast<std::size_t>(BlameComponent::kCount);

/// Stable lowercase component name ("notify_wake", ...).
const char* blame_component_name(BlameComponent c);
/// true for time spent waiting (queueing/sched/suppression), false for
/// time spent doing useful work (copy, delivery, guest service).
bool blame_component_is_wait(BlameComponent c);

struct BlameOptions {
  /// Thread names whose kSchedIn records count as "the vhost worker went
  /// on-core". Matched via `trace_thread_tag`, the tag the sched
  /// tracepoints carry in `arg`. The canonical testbed names one worker
  /// per VM.
  std::vector<std::string> worker_threads = {"vhost-vm0"};
  /// vCPU thread names are conventional: "<vm>/vcpu<j>". The analyzer
  /// derives tags for vm0..vm{max_vms-1} x vcpu0..vcpu{max_vcpus-1}.
  int max_vms = 8;
  int max_vcpus = 16;
  /// Worst-journey ledger: keep up to `ledger_top_n` journeys whose total
  /// exceeds `ledger_k` x p99(end-to-end).
  int ledger_top_n = 8;
  double ledger_k = 1.0;
};

/// One attributed journey: a monotone cut sequence over [start, eoi]
/// rendered as per-component durations (ns). Exact: sum(ns) == total.
struct JourneyBlame {
  std::uint64_t corr = 0;
  std::int8_t vm = -1;
  std::int8_t vcpu = -1;
  /// Flat queue index from the origin record (2*pair for TX kicks,
  /// 2*pair+1 for RX refill kicks / wire RX); -1 when unknown.
  std::int16_t queue = -1;
  /// true when the journey began with a guest kick (TX-side), false for
  /// wire-RX-origin journeys.
  bool tx_origin = false;
  SimTime start = -1;
  SimTime eoi = -1;
  std::array<SimDuration, kBlameComponents> ns{};

  SimDuration total() const { return eoi - start; }
};

/// Per-(vm, queue) rollup — the label dimensions multi-tenant sweeps cut
/// by (ROADMAP item 2: per-tenant virtqueue pairs).
struct BlameGroup {
  std::int8_t vm = -1;
  std::int16_t queue = -1;
  std::int64_t journeys = 0;
  SimDuration total = 0;
  std::array<SimDuration, kBlameComponents> ns{};
};

struct BlameBreakdown {
  std::int64_t journeys = 0;  // journeys observed (any landmarks)
  std::int64_t complete = 0;  // journeys attributed (all landmarks)
  /// Aggregate per-component time over complete journeys.
  std::array<SimDuration, kBlameComponents> component_ns{};
  /// Per-journey per-component durations, distribution shape.
  std::array<Histogram, kBlameComponents> component_hist;
  Histogram end_to_end;
  SimDuration total_ns = 0;  // sum of journey totals
  /// Worst-journey ledger: complete journeys with total > k x p99,
  /// descending by total (ties broken by corr), at most top_n.
  std::vector<JourneyBlame> worst;
  SimDuration ledger_threshold = 0;
  /// Per-(vm, queue) rollups, sorted by (vm, queue).
  std::vector<BlameGroup> groups;

  /// Share of total journey time attributed to `c` (0 when empty).
  double fraction(BlameComponent c) const;
};

/// Attributes every complete journey of `journeys`, the spans
/// `build_spans` stitched from `records` (any order); the records supply
/// the worker and vCPU sched/wake series the cuts land on. Journeys
/// missing a landmark are counted but not attributed.
BlameBreakdown analyze_blame(const std::vector<TraceRecord>& records,
                             const std::vector<JourneySpan>& journeys,
                             const BlameOptions& options = {});

/// The cut sequence of one journey as "component=<ns>" text, path order,
/// zero segments skipped — the ledger's human-readable critical path.
std::string blame_critical_path(const JourneyBlame& j);

}  // namespace es2
