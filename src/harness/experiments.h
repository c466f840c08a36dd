// Canned experiment runners — one per paper workload family.
//
// Each runner builds a fresh deterministic `Testbed`, installs the
// workload, warms up, measures, and returns the metrics the corresponding
// table/figure reports. Bench binaries, integration tests and examples all
// share these.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/storm.h"
#include "es2/config.h"
#include "harness/runner.h"
#include "harness/testbed.h"
#include "metrics/export.h"
#include "profile/blame.h"
#include "stats/histogram.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace es2 {

// ---------------------------------------------------------------------------
// Run artifacts (shared by every runner)
// ---------------------------------------------------------------------------

/// Raw harvest from one traced run: the record snapshot, the per-I/O
/// journeys stitched from it once, their stage-latency breakdown and the
/// critical-path blame over the same journeys.
struct TraceData {
  std::vector<TraceRecord> records;
  std::vector<JourneySpan> spans;
  SpanBreakdown breakdown;
  BlameBreakdown blame;
};

/// Flattened stage-latency summary (ns) for experiment rows / CSV columns.
struct TraceStages {
  std::int64_t journeys = 0;
  std::int64_t complete = 0;
  std::int64_t kick_to_backend_p50 = 0;
  std::int64_t kick_to_backend_p99 = 0;
  std::int64_t backend_to_msi_p50 = 0;
  std::int64_t backend_to_msi_p99 = 0;
  std::int64_t msi_to_dispatch_p50 = 0;
  std::int64_t msi_to_dispatch_p99 = 0;
  std::int64_t dispatch_to_eoi_p50 = 0;
  std::int64_t dispatch_to_eoi_p99 = 0;
  std::int64_t end_to_end_p50 = 0;
  std::int64_t end_to_end_p99 = 0;
};

/// Final registry snapshot from one run, attached to result rows next to
/// TraceStages. Self-contained: outlives the testbed.
struct MetricsData {
  std::vector<MetricSample> samples;  // sorted by canonical key
  // Always 0: no time series is sampled. Kept only because the host-cost
  // benchmark's result digest (perfbench/workloads.cpp) still reads them.
  std::uint64_t sampler_frames = 0;
  std::uint64_t sampler_total = 0;
  std::string top_deltas;  // top-5 metrics by change since start(), one line

  /// Scalar value of a metric by canonical key, or `fallback`.
  double value(const std::string& key, double fallback = 0) const;
};

/// Reads the testbed's registry into a MetricsData: the final snapshot and
/// the top-5 deltas against the start() read. Call after the measured
/// span, before teardown. Never null.
std::shared_ptr<MetricsData> harvest_metrics(Testbed& tb);

/// What the two observers (ObserveOptions) and the metrics registry leave
/// behind after one run. Every runner's result inherits it.
/// Self-contained: outlives the testbed.
struct RunArtifacts {
  /// Null unless the run was traced.
  std::shared_ptr<TraceData> trace;
  /// Stage summary of `trace` (all zeros when untraced).
  TraceStages stages;
  /// Final registry snapshot (never null after a harvest).
  std::shared_ptr<MetricsData> metrics;
  /// Null unless the run hashed epochs.
  std::shared_ptr<HashSeries> hashes;
};

/// Reads every observer of `tb` into `out`: the tracer's records stitched
/// into journeys and blamed, the registry and the epoch-hash series. Call
/// after the measured span, before teardown.
void harvest(Testbed& tb, RunArtifacts& out);

/// Paper-style exit breakdown (Table I / Fig. 5 rows).
struct ExitBreakdown {
  double interrupt_delivery = 0;  // external_interrupt exits/s
  double interrupt_completion = 0;  // apic_access exits/s
  double io_instruction = 0;      // guest I/O request exits/s
  double others = 0;
  double total = 0;
  double tig_percent = 0;
};

ExitBreakdown exit_breakdown(const ExitStats& stats, SimTime now);

/// The canonical drops{cause=...} family, harvested as one row per cause.
/// Every intentionally finite queue on the event path reports here; a
/// packet that vanishes without landing in one of these is a bug.
struct DropCounts {
  std::int64_t wire = 0;          // link loss (fault-injected)
  std::int64_t backpressure = 0;  // rung-2 ingress shedding (1-in-N keep)
  std::int64_t sock_backlog = 0;  // vhost RX ring overflow
  std::int64_t syn_backlog = 0;   // guest listen backlog overflow
  std::int64_t accept_queue = 0;  // per-worker accept/request queue full
  std::int64_t accept_shed = 0;   // rung-3 SYN-cookie-style early drop
  std::int64_t worker_queue = 0;  // app worker queue full (memcached)

  std::int64_t total() const {
    return wire + backpressure + sock_backlog + syn_backlog + accept_queue +
           accept_shed + worker_queue;
  }
};

// ---------------------------------------------------------------------------
// Netperf streams (Table I, Fig. 4, Fig. 5, Fig. 6)
// ---------------------------------------------------------------------------

struct StreamOptions : ObserveOptions {
  Es2Config config;
  Proto proto = Proto::kTcp;
  Bytes msg_size = 1024;
  bool vm_sends = true;
  /// false: micro topology (1 vCPU, dedicated core);
  /// true:  macro topology (4 VMs x 4 vCPUs stacked on 4 cores).
  bool macro = false;
  /// Number of concurrent netperf threads in the tested VM.
  int threads = 1;
  /// Dataplane shape: virtio-net queue pairs (RSS-steered when > 1) and
  /// the ring layout both sides negotiate.
  int num_queue_pairs = 1;
  RingLayout ring_layout = RingLayout::kSplit;
  /// Vhost worker service discipline (see TestbedOptions::poll_mode).
  PollMode poll_mode = PollMode::kNotify;
  SimDuration poll_interval = usec(2);
  SimDuration adaptive_poll_budget = usec(50);
  std::uint64_t seed = 1;
  SimDuration warmup = msec(200);
  SimDuration measure = msec(800);
};

struct StreamResult : RunArtifacts {
  ExitBreakdown exits;
  double throughput_mbps = 0;
  double packets_per_sec = 0;
  double kicks_per_sec = 0;       // guest kick instructions executed
  double guest_irqs_per_sec = 0;  // interrupts taken through the guest IDT
  std::int64_t rx_dropped = 0;    // vhost RX ring overflow drops
  std::int64_t link_dropped = 0;  // wire drops, both directions
  /// Same drops broken out by canonical cause (rx_dropped ==
  /// drops.sock_backlog, link_dropped == drops.wire; kept as flat fields
  /// too so existing consumers read unchanged).
  DropCounts drops;
};

StreamResult run_stream(const StreamOptions& opts);

// ---------------------------------------------------------------------------
// Chaos streams: netperf under seeded faults, with auditing + watchdog
// ---------------------------------------------------------------------------

struct ChaosStreamOptions {
  StreamOptions stream;
  FaultPlan faults;
  /// Disable to demonstrate an unrecovered wedge (100% kick loss with no
  /// guest TX watchdog must be caught by the scenario watchdog instead).
  bool tx_watchdog = true;
  bool audit = true;
  SimDuration audit_period = msec(1);
  ScenarioBudget budget;
};

struct ChaosStreamResult {
  StreamResult stream;
  FaultStats faults;
  // Recovery-path activity.
  std::int64_t fast_retransmits = 0;  // peer TCP dup-ACK retransmits
  std::int64_t rto_retransmits = 0;   // peer TCP timeout retransmits
  std::int64_t tx_watchdog_kicks = 0;  // guest dev_watchdog re-kicks
  std::int64_t rx_watchdog_polls = 0;  // guest missed-RX-irq NAPI recoveries
  std::int64_t rx_repolls = 0;         // vhost missed-kick re-polls
  // Auditor outcome.
  std::uint64_t audit_sweeps = 0;
  std::int64_t audit_violations = 0;
  // Watchdog verdict for this scenario (status == kOk on a healthy run).
  ScenarioReport report;
};

/// run_stream under a fault plan: same topology and workload, but the run
/// is supervised by a ScenarioWatchdog (progress = packets delivered
/// end-to-end) and instrumented with the invariant auditor. Chaos runs
/// face real holes, so the peer's TCP sender fast-retransmits on three
/// duplicate ACKs where a healthy stream keeps RTO-only recovery. Never
/// hangs: a wedged world comes back with report.status != kOk and
/// partial stats.
ChaosStreamResult run_chaos_stream(const ChaosStreamOptions& opts,
                                   const std::string& name = "chaos");

// ---------------------------------------------------------------------------
// Recovery streams: lifecycle faults, the recovery ladder, MTTR accounting
// ---------------------------------------------------------------------------

/// Per-fault-mode recovery outcome (the bench_recovery rows).
struct RecoveryModeStats {
  LifecycleFault mode = LifecycleFault::kDescCorrupt;
  std::int64_t injected = 0;
  std::int64_t recovered = 0;
  SimDuration mttr_p50 = 0;  // sim-ns over recovered instances
  SimDuration mttr_p99 = 0;
};

/// Structured escalation of a fault instance still open at scenario end —
/// the "silent wedge" made loud. Carries the trace correlation id so the
/// stuck journey can be pulled straight out of a Perfetto export.
struct WedgeReport {
  std::int64_t instance = 0;
  LifecycleFault mode = LifecycleFault::kDescCorrupt;
  int scope = kScopeTx;
  SimTime injected_at = 0;
  SimDuration open_for = 0;
  std::uint64_t corr = 0;
  /// One WATCHDOG-style line (mode, scope, correlation id, how long open).
  std::string detail;
};

struct RecoveryStreamOptions {
  /// The chaos substrate: topology, workload, fault plan (lifecycle
  /// periods live in chaos.faults), watchdog budget, auditing.
  ChaosStreamOptions chaos;
  /// Arm the guest recovery ladder. Defaults on here — this runner exists
  /// to measure it — while chaos baselines keep the ladder off.
  bool recovery_ladder = true;
  /// After the measured span, stop injecting and give still-open
  /// instances this long to finish climbing the ladder before the ledger
  /// is read. Separates end-of-run truncation from a genuine wedge.
  SimDuration drain = msec(50);
};

struct RecoveryStreamResult {
  ChaosStreamResult chaos;
  // Ledger totals (every lifecycle fault instance ever opened).
  std::int64_t injected = 0;
  std::int64_t recovered = 0;
  std::int64_t unrecovered = 0;
  SimDuration mttr_p50 = 0;  // over recovered instances, all modes
  SimDuration mttr_p99 = 0;
  std::vector<RecoveryModeStats> modes;  // one entry per injected mode
  // Ladder activity by rung (RecoveryLog action counts).
  std::int64_t rung_watchdog = 0;
  std::int64_t rung_vhost_repoll = 0;
  std::int64_t rung_queue_reset = 0;
  std::int64_t rung_device_reset = 0;
  // Device-lifecycle counters. Resets/renegotiations include the boot
  // negotiation (+1 each); the ladder_* pair counts recovery-driven ones.
  std::int64_t ring_faults_detected = 0;
  std::int64_t queue_resets = 0;
  std::int64_t device_resets = 0;
  std::int64_t renegotiations = 0;
  std::int64_t ladder_queue_resets = 0;
  std::int64_t ladder_device_resets = 0;
  std::int64_t worker_crashes = 0;
  std::int64_t worker_restarts = 0;
  /// Structured reports for every unrecovered instance; empty == zero
  /// silent wedges.
  std::vector<WedgeReport> wedges;

  /// The soak verdict: every injected fault either recovered in bounded
  /// sim time or is loudly reported, and the scenario watchdog stayed
  /// happy throughout.
  bool clean() const { return wedges.empty() && chaos.report.ok(); }
};

/// run_chaos_stream plus the recovery machinery: lifecycle faults from
/// the plan, the guest recovery ladder, and MTTR accounting harvested
/// from the RecoveryLog before teardown. Injection stops after the
/// measured span so the drain window races only the ladder.
RecoveryStreamResult run_recovery_stream(const RecoveryStreamOptions& opts,
                                         const std::string& name = "recovery");

// ---------------------------------------------------------------------------
// Ping RTT (Fig. 7)
// ---------------------------------------------------------------------------

struct PingOptions : ObserveOptions {
  Es2Config config;
  int samples = 120;
  SimDuration interval = msec(250);
  std::uint64_t seed = 1;
};

struct PingResult : RunArtifacts {
  Histogram rtt;                       // ns
  std::vector<SimDuration> samples;    // Fig. 7 is a time series
  std::int64_t lost = 0;
};

PingResult run_ping(const PingOptions& opts);

// ---------------------------------------------------------------------------
// Memcached (Fig. 8a)
// ---------------------------------------------------------------------------

/// memaslap's paper load: 16 client threads x 16 concurrent requests,
/// get/set 9:1, against 4 memcached workers.
struct MemcachedOptions : ObserveOptions {
  Es2Config config;
  std::uint64_t seed = 1;
  SimDuration warmup = msec(300);
  SimDuration measure = sec(1);
};

struct MemcachedResult : RunArtifacts {
  double ops_per_sec = 0;
  double throughput_mbps = 0;  // response bytes
  Histogram latency;           // ns per op
};

MemcachedResult run_memcached(const MemcachedOptions& opts);

// ---------------------------------------------------------------------------
// Apache (Fig. 8b) and Httperf (Fig. 9)
// ---------------------------------------------------------------------------

/// ApacheBench's paper load: 16 concurrent connections against 8 httpd
/// workers.
struct ApacheOptions : ObserveOptions {
  Es2Config config;
  std::uint64_t seed = 1;
  SimDuration warmup = msec(300);
  SimDuration measure = sec(1);
};

struct ApacheResult : RunArtifacts {
  double requests_per_sec = 0;
  double throughput_mbps = 0;
};

ApacheResult run_apache(const ApacheOptions& opts);

struct HttperfOptions : ObserveOptions {
  Es2Config config;
  double rate_per_sec = 1000;
  SimDuration duration = sec(3);
  std::uint64_t seed = 1;
};

struct HttperfResult : RunArtifacts {
  double avg_connect_ms = 0;
  double p99_connect_ms = 0;
  std::int64_t established = 0;
  std::int64_t retries = 0;
};

HttperfResult run_httperf(const HttperfOptions& opts);

// ---------------------------------------------------------------------------
// Connection storms: overload, receive livelock, graceful degradation
// ---------------------------------------------------------------------------

struct StormOptions : ObserveOptions {
  Es2Config config;
  /// Arrival-rate envelope (ramp / hold / ramp-down / diurnal bursts).
  StormShape shape;
  /// Arm the guest's overload ladder (livelock detector + ksoftirqd +
  /// backpressure + accept shedding). Off reproduces the classic receive
  /// livelock; on is the graceful-degradation arm of the same cell.
  bool mitigation = false;
  /// TFO request payload per SYN: the data-bearing SYN takes the full TCP
  /// receive path (rx_tcp_per_packet, ~8.5k cycles) instead of the cheap
  /// ACK path. Payload size itself barely moves the per-packet cost
  /// (rx_cycles_per_byte is fractional) — peak_rate is the overload knob.
  Bytes syn_payload = 64;
  std::uint64_t seed = 1;
  /// No-load settle before the generator starts.
  SimDuration warmup = msec(100);
  /// Post-storm observation span (recovery back to base-rate service).
  SimDuration cooldown = msec(300);
  /// A mitigations-off cell at a collapsing ramp is SUPPOSED to trip the
  /// scenario watchdog with kLivelock; set this so the runner finishes the
  /// full storm span unsupervised after the (expected) verdict, keeping
  /// the measured span identical across both arms of the comparison.
  bool expect_livelock = false;
  /// Watchdog budget. stall_tolerance defaults to 8 progress units per
  /// 50 ms window (160 conn/s): a livelocked listener still trickles a few
  /// accepts per window when the timer tick briefly interrupts the poll
  /// chain, while healthy storm cells clear hundreds per window — receive
  /// livelock is collapse to near-zero, not bit-exact zero.
  ScenarioBudget budget = [] {
    ScenarioBudget b;
    b.stall_tolerance = 8;
    return b;
  }();
};

struct StormResult : RunArtifacts {
  // Client-side connection accounting (whole storm span).
  std::int64_t attempted = 0;
  std::int64_t established = 0;
  std::int64_t retries = 0;
  std::int64_t abandoned = 0;
  std::int64_t client_pending_overflows = 0;
  // Server-side service.
  std::int64_t accepts = 0;
  std::int64_t served = 0;
  double goodput_mbps = 0;     // page bytes delivered back to the client
  double conns_per_sec = 0;    // established rate over the storm span
  double connect_p50_ms = 0;   // SYN -> SYN/ACK
  double connect_p99_ms = 0;
  /// Every drop on the path, by canonical cause. Under overload these are
  /// the design working as intended — the blame table of where load shed.
  DropCounts drops;
  // Overload-ladder activity (zeros when mitigation is off).
  int overload_max_rung = 0;
  std::int64_t livelock_detections = 0;
  std::int64_t ksoftirqd_defers = 0;
  std::int64_t ksoftirqd_polls = 0;
  // Livelock episodes in the recovery ledger (MTTR = detect -> first app
  // progress after mitigation).
  std::int64_t episodes = 0;
  std::int64_t episodes_recovered = 0;
  SimDuration mttr_p50 = 0;
  SimDuration mttr_p99 = 0;
  // Bounded-container audit signal.
  std::size_t worker_active_high_water = 0;
  /// Watchdog verdict. kLivelock with expect_livelock set is the cell
  /// demonstrating the failure mode on purpose — see acceptable().
  ScenarioReport report;
  bool livelocked = false;        // report.status == kLivelock
  bool livelock_expected = false; // copied from options

  /// The cell verdict: clean, or livelocked exactly when that was the
  /// point of the cell.
  bool acceptable() const {
    return report.ok() || (livelock_expected && livelocked);
  }
};

/// Connection-storm runner (micro topology): an ApacheServer with tight
/// finite queues under a StormClient flash crowd, supervised by a
/// ScenarioWatchdog whose activity probe (NAPI polls + backend deliveries)
/// separates a livelocked world from a wedged one. With mitigation armed
/// the run also carries the livelock MTTR ledger.
StormResult run_storm(const StormOptions& opts,
                      const std::string& name = "storm");

}  // namespace es2
