#include "harness/experiments.h"

#include <array>
#include <functional>
#include <memory>

#include "apps/httpd.h"
#include "apps/memcached.h"
#include "apps/netperf.h"
#include "apps/ping.h"
#include "base/assert.h"
#include "base/strings.h"

namespace es2 {

namespace {

inline constexpr std::uint64_t kStreamFlowBase = 100;

/// The canonical micro/macro testbed for a runner's options: its config,
/// seed and observers (one base assignment carries all four).
template <typename Opts>
TestbedOptions testbed_options(const Opts& opts, bool macro) {
  TestbedOptions o;
  static_cast<ObserveOptions&>(o) = opts;
  o.config = opts.config;
  o.seed = opts.seed;
  o.num_vms = macro ? 4 : 1;
  o.vcpus_per_vm = macro ? 4 : 1;
  o.stack_vms = macro;
  o.vhost_core = 4;
  return o;
}

/// A stream's testbed: the canonical topology plus its dataplane axes
/// (queue pairs, ring layout, poll mode). Defaults leave the options
/// untouched, so pre-dataplane configs keep their exact construction
/// sequence.
TestbedOptions stream_testbed_options(const StreamOptions& opts) {
  TestbedOptions to = testbed_options(opts, opts.macro);
  to.vhost_params.num_queue_pairs = opts.num_queue_pairs;
  to.vhost_params.ring_layout = opts.ring_layout;
  to.poll_mode = opts.poll_mode;
  to.poll_interval = opts.poll_interval;
  to.adaptive_poll_budget = opts.adaptive_poll_budget;
  return to;
}

/// The netperf endpoints for one stream scenario, attached in a fixed
/// order so healthy and chaos runs build identical object graphs.
struct StreamWorkload {
  std::vector<std::unique_ptr<NetperfSender>> senders;
  std::vector<std::unique_ptr<PeerStreamReceiver>> peer_rx;
  std::vector<std::unique_ptr<NetperfReceiver>> guest_rx;
  std::vector<std::unique_ptr<PeerStreamSender>> peer_tx;

  void attach(Testbed& tb, const StreamOptions& opts) {
    const int vcpus = tb.tested_vm().num_vcpus();
    for (int t = 0; t < opts.threads; ++t) {
      const std::uint64_t flow =
          kStreamFlowBase + static_cast<std::uint64_t>(t);
      if (opts.vm_sends) {
        senders.push_back(std::make_unique<NetperfSender>(
            tb.guest(), tb.frontend(), flow, opts.proto, opts.msg_size,
            t % vcpus));
        tb.guest().add_task(*senders.back());
        senders.back()->register_metrics(tb.metrics());
        tb.snapshotter().add(format("app/netperf-tx%d", t), *senders.back());
        peer_rx.push_back(
            std::make_unique<PeerStreamReceiver>(tb.peer(), flow, opts.proto));
        peer_rx.back()->register_metrics(tb.metrics());
        tb.snapshotter().add(format("app/peer-rx%d", t), *peer_rx.back());
      } else {
        guest_rx.push_back(std::make_unique<NetperfReceiver>(
            tb.guest(), tb.frontend(), flow, opts.proto));
        guest_rx.back()->register_metrics(tb.metrics());
        tb.snapshotter().add(format("app/netperf-rx%d", t), *guest_rx.back());
        PeerStreamSender::Params p;
        p.proto = opts.proto;
        p.msg_size = opts.msg_size;
        p.udp_rate_pps = opts.udp_offered_pps / opts.threads;
        p.dupack_threshold = opts.dupack_threshold;
        peer_tx.push_back(
            std::make_unique<PeerStreamSender>(tb.peer(), flow, p));
        peer_tx.back()->register_metrics(tb.metrics());
        tb.snapshotter().add(format("app/peer-tx%d", t), *peer_tx.back());
      }
    }
  }

  void start_sources() {
    for (auto& s : peer_tx) s->start();
  }

  /// End-to-end delivered packets — the watchdog's figure of merit.
  std::int64_t packets_delivered() const {
    std::int64_t pkts = 0;
    for (const auto& r : peer_rx) pkts += r->packets_received();
    for (const auto& r : guest_rx) pkts += r->packets_received();
    return pkts;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Run artifacts
// ---------------------------------------------------------------------------

double MetricsData::value(const std::string& key, double fallback) const {
  for (const MetricSample& s : samples) {
    if (metric_key(s.name, s.labels) == key) return s.value;
  }
  return fallback;
}

std::shared_ptr<MetricsData> harvest_metrics(Testbed& tb) {
  auto data = std::make_shared<MetricsData>();
  data->samples = snapshot(tb.metrics());
  data->top_deltas = tb.top_metric_deltas(5);
  return data;
}

void harvest(Testbed& tb, RunArtifacts& out) {
  if (const Tracer* tracer = tb.tracer()) {
    out.trace = std::make_shared<TraceData>();
    TraceData& t = *out.trace;
    t.records = tracer->snapshot();
    t.breakdown = build_spans(t.records, &t.spans);
    t.blame = analyze_blame(t.records, t.spans);
    const SpanBreakdown& b = t.breakdown;
    TraceStages& s = out.stages;
    s.journeys = static_cast<std::int64_t>(t.spans.size());
    s.complete = b.complete;
    s.kick_to_backend_p50 = b.kick_to_backend.p50();
    s.kick_to_backend_p99 = b.kick_to_backend.p99();
    s.backend_to_msi_p50 = b.backend_to_msi.p50();
    s.backend_to_msi_p99 = b.backend_to_msi.p99();
    s.msi_to_dispatch_p50 = b.msi_to_dispatch.p50();
    s.msi_to_dispatch_p99 = b.msi_to_dispatch.p99();
    s.dispatch_to_eoi_p50 = b.dispatch_to_eoi.p50();
    s.dispatch_to_eoi_p99 = b.dispatch_to_eoi.p99();
    s.end_to_end_p50 = b.end_to_end.p50();
    s.end_to_end_p99 = b.end_to_end.p99();
  }
  out.metrics = harvest_metrics(tb);
  if (const EpochHashLog* log = tb.hash_log()) {
    out.hashes = std::make_shared<HashSeries>(log->series());
  }
}

ExitBreakdown exit_breakdown(const ExitStats& stats, SimTime now) {
  ExitBreakdown b;
  b.interrupt_delivery = stats.rate(ExitReason::kExternalInterrupt, now);
  b.interrupt_completion = stats.rate(ExitReason::kApicAccess, now);
  b.io_instruction = stats.rate(ExitReason::kIoInstruction, now);
  b.others = stats.others_rate(now);
  b.total = stats.total_rate(now);
  b.tig_percent = stats.tig_percent();
  return b;
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

namespace {

/// Wire/vhost rows of the canonical drops{cause=...} family for a stream
/// run (streams have no app-level finite queues; those causes stay zero).
DropCounts stream_drops(Testbed& tb) {
  DropCounts d;
  d.wire = static_cast<std::int64_t>(tb.vm_to_peer().packets_dropped() +
                                     tb.peer_to_vm().packets_dropped());
  d.backpressure = static_cast<std::int64_t>(tb.vm_to_peer().packets_shed() +
                                             tb.peer_to_vm().packets_shed());
  d.sock_backlog = tb.backend().rx_dropped();
  return d;
}

/// A stream result's drop rows; the flat fields are views of two of them.
void collect_drops(Testbed& tb, StreamResult& r) {
  r.drops = stream_drops(tb);
  r.rx_dropped = r.drops.sock_backlog;
  r.link_dropped = r.drops.wire;
}

/// Measurement-window bookkeeping shared by the healthy and chaos runners.
struct StreamWindow {
  SimTime start = 0;
  Bytes bytes_base = 0;
  std::int64_t pkt_base = 0;
  std::int64_t kicks_base = 0;
  std::int64_t irqs_base = 0;

  void open(Testbed& tb, StreamWorkload& w) {
    start = tb.sim().now();
    tb.tested_vm().begin_stats_window();
    for (auto& r : w.peer_rx) r->begin_window(start);
    for (auto& r : w.guest_rx) {
      bytes_base += r->bytes_received();
      pkt_base += r->packets_received();
    }
    for (auto& r : w.peer_rx) pkt_base += r->packets_received();
    kicks_base = tb.frontend().kicks();
    const int vcpus = tb.tested_vm().num_vcpus();
    for (int i = 0; i < vcpus; ++i) {
      irqs_base += tb.tested_vm().vcpu(i).irqs_taken();
    }
  }

  StreamResult collect(Testbed& tb, StreamWorkload& w, bool vm_sends) const {
    const SimTime now = tb.sim().now();
    const double secs = to_seconds(now - start);
    StreamResult result;
    result.exits = exit_breakdown(tb.tested_vm().aggregate_stats(), now);
    std::int64_t pkts = 0;
    if (vm_sends) {
      for (auto& r : w.peer_rx) {
        result.throughput_mbps += r->throughput_mbps(now);
        pkts += r->packets_received();
      }
    } else {
      Bytes bytes = 0;
      for (auto& r : w.guest_rx) {
        bytes += r->bytes_received();
        pkts += r->packets_received();
      }
      result.throughput_mbps = mbps(bytes - bytes_base, now - start);
    }
    if (secs > 0) {
      result.packets_per_sec = static_cast<double>(pkts - pkt_base) / secs;
      result.kicks_per_sec =
          static_cast<double>(tb.frontend().kicks() - kicks_base) / secs;
      std::int64_t irqs = 0;
      const int vcpus = tb.tested_vm().num_vcpus();
      for (int i = 0; i < vcpus; ++i) {
        irqs += tb.tested_vm().vcpu(i).irqs_taken();
      }
      result.guest_irqs_per_sec =
          static_cast<double>(irqs - irqs_base) / secs;
    }
    collect_drops(tb, result);
    return result;
  }
};

}  // namespace

StreamResult run_stream(const StreamOptions& opts) {
  Testbed tb(stream_testbed_options(opts));
  if (opts.quota_override > 0) {
    HybridIoHandling::attach(tb.backend(), opts.quota_override);
  }
  StreamWorkload w;
  w.attach(tb, opts);

  tb.start();
  w.start_sources();

  // Warmup, then open every measurement window at the same instant.
  tb.sim().run_for(opts.warmup);
  StreamWindow window;
  window.open(tb, w);
  tb.sim().run_for(opts.measure);
  StreamResult result = window.collect(tb, w, opts.vm_sends);
  harvest(tb, result);
  return result;
}

namespace {

/// TestbedOptions for a supervised (chaos/recovery) stream run.
TestbedOptions chaos_testbed_options(const ChaosStreamOptions& opts) {
  TestbedOptions to = stream_testbed_options(opts.stream);
  to.faults = opts.faults;
  to.audit = opts.audit;
  to.audit_period = opts.audit_period;
  to.guest_params.tx_watchdog = opts.tx_watchdog;
  return to;
}

/// The supervised-run body shared by chaos and recovery streams. `drain`
/// extends the run past the measured window (after calling `on_drain`,
/// which the recovery runner uses to stop injection) — still under the
/// watchdog, so even a wedged drain cannot hang. The measurement window
/// closes before the drain starts; drains never dilute throughput.
ChaosStreamResult supervise_stream(Testbed& tb, StreamWorkload& w,
                                   const ChaosStreamOptions& opts,
                                   const std::string& name, SimDuration drain,
                                   const std::function<void()>& on_drain) {
  tb.start();
  w.start_sources();

  ScenarioWatchdog wd(tb.sim(), opts.budget);
  const auto progress = [&w] { return w.packets_delivered(); };

  StreamWindow window;
  bool window_open = false;
  if (wd.run_for(opts.stream.warmup, progress)) {
    window.open(tb, w);
    window_open = true;
    wd.run_for(opts.stream.measure, progress);
  }

  ChaosStreamResult result;
  // A tripped warmup never opened a window; report zeros rather than a
  // window spanning the whole wedge.
  if (window_open) {
    result.stream = window.collect(tb, w, opts.stream.vm_sends);
  } else {
    collect_drops(tb, result.stream);
  }

  if (drain > 0) {
    if (on_drain) on_drain();
    wd.run_for(drain, progress);
  }

  if (tb.faults() != nullptr) result.faults = tb.faults()->stats();
  for (auto& s : w.peer_tx) {
    result.fast_retransmits += s->fast_retransmits();
    result.rto_retransmits += s->retransmits();
  }
  result.tx_watchdog_kicks = tb.frontend().tx_watchdog_kicks();
  result.rx_watchdog_polls = tb.frontend().rx_watchdog_polls();
  result.rx_repolls = tb.backend().rx_repolls();
  if (tb.auditor() != nullptr) {
    result.audit_sweeps = tb.auditor()->sweeps();
    result.audit_violations = tb.auditor()->total_violations();
  }
  harvest(tb, result.stream);
  result.report = wd.report(name);
  // Failure lines carry the top moving metrics so a wedge points at the
  // layer that stopped (or never started) making progress.
  if (!result.report.ok()) {
    result.report.telemetry = result.stream.metrics->top_deltas;
  }
  return result;
}

}  // namespace

ChaosStreamResult run_chaos_stream(const ChaosStreamOptions& opts,
                                   const std::string& name) {
  Testbed tb(chaos_testbed_options(opts));
  if (opts.stream.quota_override > 0) {
    HybridIoHandling::attach(tb.backend(), opts.stream.quota_override);
  }
  StreamOptions stream_opts = opts.stream;
  if (stream_opts.dupack_threshold == 0) {
    stream_opts.dupack_threshold = opts.dupack_threshold;
  }
  StreamWorkload w;
  w.attach(tb, stream_opts);
  return supervise_stream(tb, w, opts, name, /*drain=*/0, nullptr);
}

// ---------------------------------------------------------------------------
// Recovery streams
// ---------------------------------------------------------------------------

namespace {

const char* scope_name(int scope) {
  switch (scope) {
    case kScopeTx: return "tx";
    case kScopeRx: return "rx";
    case kScopeWorker: return "worker";
  }
  return "?";
}

}  // namespace

RecoveryStreamResult run_recovery_stream(const RecoveryStreamOptions& opts,
                                         const std::string& name) {
  const ChaosStreamOptions& co = opts.chaos;
  TestbedOptions to = chaos_testbed_options(co);
  to.guest_params.recovery_ladder = opts.recovery_ladder;
  Testbed tb(to);
  if (co.stream.quota_override > 0) {
    HybridIoHandling::attach(tb.backend(), co.stream.quota_override);
  }
  StreamOptions stream_opts = co.stream;
  if (stream_opts.dupack_threshold == 0) {
    stream_opts.dupack_threshold = co.dupack_threshold;
  }
  StreamWorkload w;
  w.attach(tb, stream_opts);

  RecoveryStreamResult result;
  result.chaos = supervise_stream(tb, w, co, name, opts.drain, [&tb] {
    if (tb.faults() != nullptr) tb.faults()->stop_lifecycle();
  });

  if (const RecoveryLog* log = tb.recovery_log()) {
    Histogram all;
    std::array<Histogram, static_cast<std::size_t>(LifecycleFault::kCount)>
        per_mode;
    result.injected = static_cast<std::int64_t>(log->instances().size());
    for (const FaultInstance& fi : log->instances()) {
      const auto m = static_cast<std::size_t>(fi.mode);
      if (fi.recovered()) {
        ++result.recovered;
        all.record(fi.mttr());
        per_mode[m].record(fi.mttr());
        continue;
      }
      ++result.unrecovered;
      WedgeReport wr;
      wr.instance = fi.id;
      wr.mode = fi.mode;
      wr.scope = fi.scope;
      wr.injected_at = fi.injected_at;
      wr.open_for = tb.sim().now() - fi.injected_at;
      wr.corr = fi.corr;
      wr.detail = format(
          "WATCHDOG %s: %s fault #%lld (scope %s, corr %llu) injected at "
          "%lld ns still open after %lld ns — no recovery rung cleared it",
          name.c_str(), lifecycle_fault_name(fi.mode),
          static_cast<long long>(fi.id), scope_name(fi.scope),
          static_cast<unsigned long long>(fi.corr),
          static_cast<long long>(fi.injected_at),
          static_cast<long long>(wr.open_for));
      result.wedges.push_back(std::move(wr));
    }
    result.mttr_p50 = all.p50();
    result.mttr_p99 = all.p99();
    for (std::size_t m = 0;
         m < static_cast<std::size_t>(LifecycleFault::kCount); ++m) {
      const auto mode = static_cast<LifecycleFault>(m);
      if (log->injected(mode) == 0) continue;
      RecoveryModeStats ms;
      ms.mode = mode;
      ms.injected = log->injected(mode);
      ms.recovered = log->recovered(mode);
      ms.mttr_p50 = per_mode[m].p50();
      ms.mttr_p99 = per_mode[m].p99();
      result.modes.push_back(ms);
    }
    result.rung_watchdog = log->actions(RecoveryRung::kGuestWatchdog);
    result.rung_vhost_repoll = log->actions(RecoveryRung::kVhostRepoll);
    result.rung_queue_reset = log->actions(RecoveryRung::kQueueReset);
    result.rung_device_reset = log->actions(RecoveryRung::kDeviceReset);
  }
  result.ring_faults_detected = tb.backend().ring_faults_detected();
  result.queue_resets = tb.backend().queue_resets();
  result.device_resets = tb.backend().device_resets();
  result.renegotiations = tb.backend().renegotiations();
  result.ladder_queue_resets = tb.frontend().ladder_queue_resets();
  result.ladder_device_resets = tb.frontend().ladder_device_resets();
  result.worker_crashes = tb.vhost_worker().crashes();
  result.worker_restarts = tb.vhost_worker().restarts();
  return result;
}

// ---------------------------------------------------------------------------
// Ping
// ---------------------------------------------------------------------------

PingResult run_ping(const PingOptions& opts) {
  Testbed tb(testbed_options(opts, /*macro=*/true));
  const std::uint64_t flow = 7;
  PingResponder responder(tb.guest(), tb.frontend(), flow);
  PingClient client(tb.peer(), flow, opts.interval);
  tb.snapshotter().add("app/ping-responder", responder);
  tb.snapshotter().add("app/ping-client", client);

  tb.start();
  client.start();
  // One interval of warmup, then collect `samples` echoes.
  tb.sim().run_for(opts.interval * 2);
  const SimDuration span = opts.interval * (opts.samples + 1);
  tb.sim().run_for(span);

  PingResult result;
  result.rtt = client.rtt();
  result.samples = client.samples();
  result.lost = client.lost();
  harvest(tb, result);
  return result;
}

// ---------------------------------------------------------------------------
// Memcached
// ---------------------------------------------------------------------------

MemcachedResult run_memcached(const MemcachedOptions& opts) {
  Testbed tb(testbed_options(opts, /*macro=*/true));
  const std::uint64_t base_flow = 1000;
  MemcachedServer server(tb.guest(), tb.frontend(), base_flow,
                         opts.client_threads, opts.workers);
  MemaslapClient::Params cp;
  cp.threads = opts.client_threads;
  cp.concurrency_per_thread = opts.concurrency_per_thread;
  cp.get_ratio = opts.get_ratio;
  MemaslapClient client(tb.peer(), base_flow, cp, opts.seed);
  tb.snapshotter().add("app/memcached", server);
  tb.snapshotter().add("app/memaslap", client);

  tb.start();
  client.start();
  tb.sim().run_for(opts.warmup);
  client.begin_window(tb.sim().now());
  tb.sim().run_for(opts.measure);

  MemcachedResult result;
  result.ops_per_sec = client.ops_per_sec(tb.sim().now());
  result.throughput_mbps = client.response_mbps(tb.sim().now());
  result.latency = client.latency();
  harvest(tb, result);
  return result;
}

// ---------------------------------------------------------------------------
// Apache / Httperf
// ---------------------------------------------------------------------------

ApacheResult run_apache(const ApacheOptions& opts) {
  Testbed tb(testbed_options(opts, /*macro=*/true));
  const std::uint64_t base_flow = 2000;
  ApacheServer server(tb.guest(), tb.frontend(), base_flow, opts.concurrency,
                      opts.workers);
  AbClient client(tb.peer(), base_flow, opts.concurrency);
  tb.snapshotter().add("app/httpd", server);
  tb.snapshotter().add("app/ab", client);

  tb.start();
  client.start();
  tb.sim().run_for(opts.warmup);
  client.begin_window(tb.sim().now());
  tb.sim().run_for(opts.measure);

  ApacheResult result;
  result.requests_per_sec = client.requests_per_sec(tb.sim().now());
  result.throughput_mbps = client.response_mbps(tb.sim().now());
  harvest(tb, result);
  return result;
}

HttperfResult run_httperf(const HttperfOptions& opts) {
  Testbed tb(testbed_options(opts, /*macro=*/true));
  const std::uint64_t base_flow = 3000;
  ApacheServer server(tb.guest(), tb.frontend(), base_flow, /*client_conns=*/1,
                      /*workers=*/4);
  HttperfClient client(tb.peer(), server.listen_flow(), opts.rate_per_sec);
  tb.snapshotter().add("app/httpd", server);
  tb.snapshotter().add("app/httperf", client);

  tb.start();
  client.start();
  tb.sim().run_for(opts.duration);
  client.stop();
  // Let in-flight handshakes settle.
  tb.sim().run_for(msec(500));

  HttperfResult result;
  result.avg_connect_ms = client.connect_time().mean() / 1e6;
  result.p99_connect_ms =
      static_cast<double>(client.connect_time().p99()) / 1e6;
  result.established = client.established();
  result.retries = client.retries();
  harvest(tb, result);
  return result;
}

// ---------------------------------------------------------------------------
// Connection storms
// ---------------------------------------------------------------------------

StormResult run_storm(const StormOptions& opts, const std::string& name) {
  TestbedOptions to = testbed_options(opts, /*macro=*/false);
  to.guest_params.overload_mitigation = opts.mitigation;
  Testbed tb(to);
  ApacheCosts costs;
  costs.syn_backlog = opts.syn_backlog;
  costs.accept_queue = opts.accept_queue;
  ApacheServer server(tb.guest(), tb.frontend(), /*base_flow=*/4000,
                      /*client_conns=*/1, opts.workers, costs);
  StormClient client(tb.peer(), server.listen_flow(), opts.shape, opts.syn_rto,
                     opts.max_retries, /*max_pending=*/65536, opts.syn_payload);
  server.register_metrics(tb.metrics());
  tb.snapshotter().add("app/httpd", server);
  tb.snapshotter().add("app/storm", client);

  tb.start();
  // No-load settle (boot, negotiation); the generator starts cold.
  tb.sim().run_for(opts.warmup);

  ScenarioWatchdog wd(tb.sim(), opts.budget);
  const auto progress = [&client, &server] {
    return client.established() + server.requests_served();
  };
  // Low-level work keeps climbing while the app starves: that is the
  // livelock signature the watchdog separates from a generic wedge.
  wd.set_activity_probe([&tb] {
    return tb.frontend().rx_polled() + tb.backend().rx_packets();
  });

  const SimTime t0 = tb.sim().now();
  client.begin_window(t0);
  client.start();
  const StormShape& sh = opts.shape;
  const SimDuration span = sh.ramp_up + sh.hold + sh.ramp_down + opts.cooldown;
  wd.run_for(span, progress);
  // An *expected* livelock verdict ends supervision, not the experiment:
  // finish the storm span unsupervised so both arms of a mitigation
  // comparison measure the same simulated interval.
  if (opts.expect_livelock && wd.status() == ScenarioStatus::kLivelock &&
      tb.sim().now() < t0 + span) {
    tb.sim().run_for(t0 + span - tb.sim().now());
  }
  client.stop();

  const SimTime now = tb.sim().now();
  StormResult r;
  r.attempted = client.attempted();
  r.established = client.established();
  r.retries = client.retries();
  r.abandoned = client.abandoned();
  r.client_pending_overflows = client.pending_overflows();
  r.accepts = server.accepts();
  r.served = server.requests_served();
  r.goodput_mbps = client.goodput_mbps(now);
  r.conns_per_sec = client.conns_per_sec(now);
  r.connect_p50_ms = static_cast<double>(client.connect_time().p50()) / 1e6;
  r.connect_p99_ms = static_cast<double>(client.connect_time().p99()) / 1e6;
  r.drops = stream_drops(tb);
  r.drops.syn_backlog = server.syn_drops();
  r.drops.accept_queue = server.accept_queue_drops();
  r.drops.accept_shed = server.shed_drops();
  r.overload_max_rung = tb.frontend().overload_max_rung();
  r.livelock_detections = tb.frontend().livelock_detections();
  r.ksoftirqd_defers = tb.frontend().ksoftirqd_defers();
  r.ksoftirqd_polls = tb.frontend().ksoftirqd_polls();
  if (const RecoveryLog* log = tb.recovery_log()) {
    Histogram mttr;
    for (const FaultInstance& fi : log->instances()) {
      if (fi.mode != LifecycleFault::kRxLivelock) continue;
      ++r.episodes;
      if (fi.recovered()) {
        ++r.episodes_recovered;
        mttr.record(fi.mttr());
      }
    }
    r.mttr_p50 = mttr.p50();
    r.mttr_p99 = mttr.p99();
  }
  r.worker_active_high_water = tb.vhost_worker().active_high_water();
  r.report = wd.report(name);
  r.livelocked = r.report.status == ScenarioStatus::kLivelock;
  r.livelock_expected = opts.expect_livelock;
  harvest(tb, r);
  // Unacceptable verdicts carry the top moving metrics, same as chaos.
  if (!r.acceptable()) r.report.telemetry = r.metrics->top_deltas;
  return r;
}

}  // namespace es2
