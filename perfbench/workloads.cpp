#include "workloads.h"

#include <time.h>

#include <chrono>
#include <string_view>

#include "base/alloc_hook.h"
#include "base/strings.h"

namespace perfbench {

using namespace es2;

double now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double wall_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TestbedOptions testbed_for(const Es2Config& config, bool macro,
                           std::uint64_t seed) {
  TestbedOptions o;
  o.config = config;
  o.seed = seed;
  o.num_vms = macro ? 4 : 1;
  o.vcpus_per_vm = macro ? 4 : 1;
  o.stack_vms = macro;
  o.vhost_core = 4;
  return o;
}

namespace {

/// Host cost of one runner call, filled by `timed`.
struct RunnerCost {
  double start_ns = 0;
  double end_ns = 0;
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;
};

/// Calls `runner` and records its CPU time and heap allocations.
template <typename F>
auto timed(RunnerCost& cost, F&& runner) {
  const std::int64_t allocs0 = test::allocation_count();
  const std::int64_t bytes0 = test::allocation_bytes();
  cost.start_ns = now_ns();
  auto result = runner();
  cost.end_ns = now_ns();
  cost.allocs = test::allocation_count() - allocs0;
  cost.alloc_bytes = test::allocation_bytes() - bytes0;
  return result;
}

/// FNV-1a over the bit patterns of every scalar fed to it.
class Digest {
 public:
  Digest& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
    return *this;
  }
  Digest& add(double v) { return bytes(&v, sizeof v); }
  Digest& add(std::int64_t v) { return bytes(&v, sizeof v); }
  Digest& add(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& add(int v) { return add(static_cast<std::int64_t>(v)); }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    return bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void add_stages(Digest& d, const TraceStages& s) {
  d.add(s.journeys).add(s.complete);
  d.add(s.kick_to_backend_p50).add(s.kick_to_backend_p99);
  d.add(s.backend_to_msi_p50).add(s.backend_to_msi_p99);
  d.add(s.msi_to_dispatch_p50).add(s.msi_to_dispatch_p99);
  d.add(s.dispatch_to_eoi_p50).add(s.dispatch_to_eoi_p99);
  d.add(s.end_to_end_p50).add(s.end_to_end_p99);
}

void add_drops(Digest& d, const DropCounts& c) {
  d.add(c.wire).add(c.backpressure).add(c.sock_backlog).add(c.syn_backlog);
  d.add(c.accept_queue).add(c.accept_shed).add(c.worker_queue);
}

void add_histogram(Digest& d, const Histogram& h) {
  d.add(h.count()).add(h.mean()).add(h.p50()).add(h.p90()).add(h.p99());
  d.add(h.max());
  if (h.count() > 0) d.add(h.min());
}

void add_report(Digest& d, const ScenarioReport& r) {
  d.add(static_cast<int>(r.status)).add(r.sim_now).add(r.events);
}

/// Every sample of the harvested registry (the layers' own counters).
void add_metrics(Digest& d, const MetricsData& m) {
  for (const MetricSample& s : m.samples) {
    d.add(metric_key(s.name, s.labels)).add(s.value);
    d.add(s.hist_p50).add(s.hist_p99);
  }
  d.add(m.sampler_frames).add(m.sampler_total).add(m.top_deltas);
}

void add_stream(Digest& d, const StreamResult& r) {
  const ExitBreakdown& e = r.exits;
  d.add(e.interrupt_delivery).add(e.interrupt_completion).add(e.io_instruction);
  d.add(e.others).add(e.total).add(e.tig_percent);
  d.add(r.throughput_mbps).add(r.packets_per_sec).add(r.kicks_per_sec);
  d.add(r.guest_irqs_per_sec).add(r.rx_dropped).add(r.link_dropped);
  add_drops(d, r.drops);
  add_stages(d, r.stages);
}

void add_chaos(Digest& d, const ChaosStreamResult& r) {
  add_stream(d, r.stream);
  const FaultStats& f = r.faults;
  d.add(f.link_dropped).add(f.link_reordered).add(f.link_duplicated);
  d.add(f.kicks_dropped).add(f.kicks_delayed).add(f.msis_dropped);
  d.add(f.worker_stalls).add(f.spurious_irqs).add(f.desc_corruptions);
  d.add(f.avail_tears).add(f.handler_wedges).add(f.worker_crashes);
  d.add(r.fast_retransmits).add(r.rto_retransmits).add(r.tx_watchdog_kicks);
  d.add(r.rx_watchdog_polls).add(r.rx_repolls);
  d.add(r.audit_sweeps).add(r.audit_violations);
  add_report(d, r.report);
  if (r.stream.hashes) {
    for (const EpochHash& e : r.stream.hashes->entries) d.add(e.world);
  }
}

/// Finishes an outcome from the harvested registry: fired events join the
/// digest, and the registry itself rides along for the per-layer counts.
CellOutcome finish(Digest& d, const std::shared_ptr<MetricsData>& metrics,
                   double sim_seconds, const RunnerCost& cost) {
  CellOutcome out;
  out.host_start_ns = cost.start_ns;
  out.host_end_ns = cost.end_ns;
  out.allocs = cost.allocs;
  out.alloc_bytes = cost.alloc_bytes;
  out.metrics = metrics;
  out.fired = metrics->value("eventcore.fired");
  add_metrics(d, *metrics);
  d.add(out.fired);
  out.digest = d.value();
  out.sim_seconds = sim_seconds;
  out.ok = out.fired > 0;
  if (!out.ok) out.verdict = "no simulated events";
  return out;
}

void fail(CellOutcome& out, const std::string& why) {
  if (!out.ok) return;
  out.ok = false;
  out.verdict = why;
}

TestbedOptions stream_testbed(const StreamOptions& s) {
  TestbedOptions o = testbed_for(s.config, s.macro, s.seed);
  o.vhost_params.num_queue_pairs = s.num_queue_pairs;
  o.vhost_params.ring_layout = s.ring_layout;
  o.poll_mode = s.poll_mode;
  o.poll_interval = s.poll_interval;
  o.adaptive_poll_budget = s.adaptive_poll_budget;
  o.snapshot = s.snapshot;
  return o;
}

/// Per-cell seed: splitmix64 of the workload seed and the cell index, so
/// every cell of every workload sees an independent stream.
std::uint64_t cell_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Stack {
  const char* label;
  Es2Config (*make)(bool udp);
};

const Stack kStacks[] = {
    {"Baseline", [](bool) { return Es2Config::baseline(); }},
    {"PI", [](bool) { return Es2Config::pi(); }},
    // Algorithm 1 quota: 4 for TCP-dominated, 8 for UDP-dominated loads.
    {"PI+H", [](bool udp) { return Es2Config::pi_h(udp ? 8 : 4); }},
    {"PI+H+R", [](bool udp) { return Es2Config::pi_h_r(udp ? 8 : 4); }},
};

double seconds(SimDuration d) { return to_seconds(d); }

Cell stream_cell(std::string name, StreamOptions o) {
  Cell c;
  c.name = std::move(name);
  c.config = o.config;
  c.macro = o.macro;
  c.testbed = stream_testbed(o);
  c.run = [o] {
    RunnerCost cost;
    const StreamResult r = timed(cost, [&] { return run_stream(o); });
    Digest d;
    add_stream(d, r);
    CellOutcome out = finish(d, r.metrics, seconds(o.warmup + o.measure), cost);
    if (r.packets_per_sec <= 0) fail(out, "stream delivered no packets");
    return out;
  };
  return c;
}

// ---------------------------------------------------------------------------
// stream: the bulk dataplane
// ---------------------------------------------------------------------------

void add_stream_cells(std::vector<Cell>& cells, std::uint64_t seed,
                      bool short_spans) {
  const SimDuration warmup = short_spans ? msec(20) : msec(100);
  const SimDuration measure = short_spans ? msec(60) : msec(400);
  for (const Stack& s : kStacks) {
    for (bool macro : {false, true}) {
      for (bool udp : {false, true}) {
        for (bool vm_sends : {true, false}) {
          StreamOptions o;
          o.config = s.make(udp);
          o.proto = udp ? Proto::kUdp : Proto::kTcp;
          o.msg_size = 1024;
          o.vm_sends = vm_sends;
          o.macro = macro;
          o.warmup = warmup;
          o.measure = measure;
          o.seed = cell_seed(seed, cells.size());
          cells.push_back(stream_cell(
              format("stream/%s/%s/%s/%s", s.label, macro ? "macro" : "micro",
                     udp ? "udp" : "tcp", vm_sends ? "tx" : "rx"),
              o));
          if (short_spans) return;  // self-test: one cell
        }
      }
    }
  }
  // Dataplane variants of full ES2: packed ring, 4 RSS queue pairs,
  // always-poll and adaptive vhost workers.
  StreamOptions base;
  base.config = Es2Config::pi_h_r();
  base.msg_size = 1024;
  base.warmup = warmup;
  base.measure = measure;

  StreamOptions packed = base;
  packed.ring_layout = RingLayout::kPacked;
  packed.seed = cell_seed(seed, cells.size());
  cells.push_back(stream_cell("stream/PI+H+R/micro/tcp/tx/packed", packed));

  StreamOptions rss = base;
  rss.config.per_queue_affinity = true;
  rss.macro = true;
  rss.threads = 4;
  rss.num_queue_pairs = 4;
  rss.seed = cell_seed(seed, cells.size());
  cells.push_back(stream_cell("stream/PI+H+R/macro/tcp/tx/rss4", rss));

  StreamOptions poll = base;
  poll.poll_mode = PollMode::kAlwaysPoll;
  poll.seed = cell_seed(seed, cells.size());
  cells.push_back(stream_cell("stream/PI+H+R/micro/tcp/tx/always-poll", poll));

  StreamOptions adaptive = base;
  adaptive.poll_mode = PollMode::kAdaptive;
  adaptive.vm_sends = false;
  adaptive.seed = cell_seed(seed, cells.size());
  cells.push_back(
      stream_cell("stream/PI+H+R/micro/tcp/rx/adaptive", adaptive));
}

// ---------------------------------------------------------------------------
// request: request/response over many flows on the macro topology
// ---------------------------------------------------------------------------

void add_request_cells(std::vector<Cell>& cells, std::uint64_t seed,
                       bool short_spans) {
  const SimDuration warmup = short_spans ? msec(30) : msec(100);
  const SimDuration measure = short_spans ? msec(60) : msec(300);
  for (const Stack& s : kStacks) {
    const Es2Config config = s.make(false);
    {
      MemcachedOptions o;
      o.config = config;
      o.warmup = warmup;
      o.measure = measure;
      o.seed = cell_seed(seed, cells.size());
      Cell c;
      c.name = format("request/%s/memcached", s.label);
      c.config = config;
      c.macro = true;
      c.testbed = testbed_for(config, true, o.seed);
      c.run = [o] {
        RunnerCost cost;
        const MemcachedResult r =
            timed(cost, [&] { return run_memcached(o); });
        Digest d;
        d.add(r.ops_per_sec).add(r.throughput_mbps);
        add_histogram(d, r.latency);
        add_stages(d, r.stages);
        CellOutcome out =
            finish(d, r.metrics, seconds(o.warmup + o.measure), cost);
        out.app_ops = r.ops_per_sec * seconds(o.measure);
        if (r.ops_per_sec <= 0) fail(out, "memcached served no requests");
        return out;
      };
      cells.push_back(std::move(c));
    }
    if (short_spans) return;
    {
      ApacheOptions o;
      o.config = config;
      o.warmup = warmup;
      o.measure = measure;
      o.seed = cell_seed(seed, cells.size());
      Cell c;
      c.name = format("request/%s/apache", s.label);
      c.config = config;
      c.macro = true;
      c.testbed = testbed_for(config, true, o.seed);
      c.run = [o] {
        RunnerCost cost;
        const ApacheResult r = timed(cost, [&] { return run_apache(o); });
        Digest d;
        d.add(r.requests_per_sec).add(r.throughput_mbps);
        add_stages(d, r.stages);
        CellOutcome out =
            finish(d, r.metrics, seconds(o.warmup + o.measure), cost);
        out.app_ops = r.requests_per_sec * seconds(o.measure);
        if (r.requests_per_sec <= 0) fail(out, "apache served no requests");
        return out;
      };
      cells.push_back(std::move(c));
    }
    {
      HttperfOptions o;
      o.config = config;
      o.duration = msec(500);
      o.seed = cell_seed(seed, cells.size());
      Cell c;
      c.name = format("request/%s/httperf", s.label);
      c.config = config;
      c.macro = true;
      c.testbed = testbed_for(config, true, o.seed);
      c.run = [o] {
        RunnerCost cost;
        const HttperfResult r =
            timed(cost, [&] { return run_httperf(o); });
        Digest d;
        d.add(r.avg_connect_ms).add(r.p99_connect_ms);
        d.add(r.established).add(r.retries);
        add_stages(d, r.stages);
        // run_httperf settles in-flight handshakes for 500 ms after the
        // generator stops.
        CellOutcome out =
            finish(d, r.metrics, seconds(o.duration + msec(500)), cost);
        out.app_ops = static_cast<double>(r.established);
        if (r.established <= 0) fail(out, "httperf established nothing");
        return out;
      };
      cells.push_back(std::move(c));
    }
  }
}

// ---------------------------------------------------------------------------
// faulted: chaos, recovery and a mitigated storm
// ---------------------------------------------------------------------------

/// bench_chaos's plan at 1% loss: wire loss with a bursty component,
/// reordering, duplication, kick loss/delay, MSI loss, worker stalls and
/// periodic spurious interrupts.
FaultPlan chaos_plan() {
  const double loss = 0.01;
  FaultPlan f;
  f.link_loss = loss;
  f.link_burst.p_good_to_bad = loss / 10;
  f.link_burst.p_bad_to_good = 0.2;
  f.link_burst.loss_bad = 0.5;
  f.link_reorder = loss / 10;
  f.link_reorder_delay = usec(20);
  f.link_duplicate = loss / 10;
  f.kick_loss = loss / 5;
  f.kick_delay_prob = loss / 2;
  f.msi_loss = loss / 10;
  f.worker_stall_prob = loss;
  f.spurious_irq_period = msec(5);
  return f;
}

/// Every lifecycle fault mode at once, on bench_recovery's soak periods.
FaultPlan recovery_plan() {
  FaultPlan f;
  f.desc_corrupt_period = msec(97);
  f.avail_tear_period = msec(103);
  f.handler_wedge_period = msec(89);
  f.worker_crash_period = msec(113);
  return f;
}

ChaosStreamOptions chaos_options(const Es2Config& config, std::uint64_t seed,
                                 bool short_spans) {
  ChaosStreamOptions o;
  o.stream.config = config;
  // Peer->VM TCP: the peer's retransmit machinery, the vhost RX path and
  // the guest IRQ path all at once.
  o.stream.vm_sends = false;
  o.stream.seed = seed;
  o.stream.warmup = short_spans ? msec(30) : msec(100);
  o.stream.measure = short_spans ? msec(100) : msec(1500);
  o.stream.snapshot.hash_epochs = true;
  o.audit = true;
  // A capped-backoff RTO can go silent for up to 320 ms; tolerate a few
  // quiet windows before calling the cell wedged.
  o.budget.progress_window = msec(100);
  o.budget.stall_windows = 12;
  return o;
}

TestbedOptions chaos_testbed(const ChaosStreamOptions& o) {
  TestbedOptions t = stream_testbed(o.stream);
  t.faults = o.faults;
  t.audit = o.audit;
  t.audit_period = o.audit_period;
  t.guest_params.tx_watchdog = o.tx_watchdog;
  return t;
}

void add_faulted_cells(std::vector<Cell>& cells, std::uint64_t seed,
                       bool short_spans) {
  for (const Stack& s : kStacks) {
    const Es2Config config = s.make(false);
    {
      ChaosStreamOptions o =
          chaos_options(config, cell_seed(seed, cells.size()), short_spans);
      o.faults = chaos_plan();
      Cell c;
      c.name = format("faulted/%s/chaos", s.label);
      c.config = config;
      c.testbed = chaos_testbed(o);
      c.run = [o] {
        RunnerCost cost;
        const ChaosStreamResult r =
            timed(cost, [&] { return run_chaos_stream(o, "chaos"); });
        Digest d;
        add_chaos(d, r);
        const SimDuration span = o.stream.warmup + o.stream.measure;
        CellOutcome out = finish(d, r.stream.metrics, seconds(span), cost);
        out.audit_sweeps = static_cast<double>(r.audit_sweeps);
        if (!r.report.ok()) fail(out, r.report.to_line());
        if (r.audit_violations != 0) {
          fail(out, format("%lld auditor violations",
                           static_cast<long long>(r.audit_violations)));
        }
        return out;
      };
      cells.push_back(std::move(c));
    }
    if (short_spans) return;  // self-test: one cell
    {
      RecoveryStreamOptions o;
      o.chaos =
          chaos_options(config, cell_seed(seed, cells.size()), short_spans);
      o.chaos.stream.measure = msec(600);
      o.chaos.faults = recovery_plan();
      Cell c;
      c.name = format("faulted/%s/recovery", s.label);
      c.config = config;
      c.testbed = chaos_testbed(o.chaos);
      c.testbed.guest_params.recovery_ladder = o.recovery_ladder;
      c.run = [o] {
        RunnerCost cost;
        const RecoveryStreamResult r =
            timed(cost, [&] { return run_recovery_stream(o, "recovery"); });
        Digest d;
        add_chaos(d, r.chaos);
        d.add(r.injected).add(r.recovered).add(r.unrecovered);
        d.add(r.mttr_p50).add(r.mttr_p99);
        for (const RecoveryModeStats& m : r.modes) {
          d.add(static_cast<int>(m.mode)).add(m.injected).add(m.recovered);
          d.add(m.mttr_p50).add(m.mttr_p99);
        }
        d.add(r.rung_watchdog).add(r.rung_vhost_repoll);
        d.add(r.rung_queue_reset).add(r.rung_device_reset);
        d.add(r.ring_faults_detected).add(r.queue_resets).add(r.device_resets);
        d.add(r.renegotiations).add(r.ladder_queue_resets);
        d.add(r.ladder_device_resets).add(r.worker_crashes);
        d.add(r.worker_restarts);
        d.add(static_cast<std::uint64_t>(r.wedges.size()));
        const SimDuration span =
            o.chaos.stream.warmup + o.chaos.stream.measure + o.drain;
        CellOutcome out =
            finish(d, r.chaos.stream.metrics, seconds(span), cost);
        out.audit_sweeps = static_cast<double>(r.chaos.audit_sweeps);
        if (!r.clean()) {
          fail(out, r.wedges.empty() ? r.chaos.report.to_line()
                                     : r.wedges.front().detail);
        }
        if (r.chaos.audit_violations != 0) {
          fail(out, format("%lld auditor violations",
                           static_cast<long long>(r.chaos.audit_violations)));
        }
        return out;
      };
      cells.push_back(std::move(c));
    }
  }
  // bench_storm's collapse ramp with the overload ladder armed: the guest
  // RX/accept path under a SYN flood that would livelock it unmitigated.
  StormOptions o;
  o.config = Es2Config::pi_h_r();
  o.mitigation = true;
  o.seed = cell_seed(seed, cells.size());
  o.shape.base_rate = 4000;
  o.shape.peak_rate = 400000;
  o.shape.ramp_up = short_spans ? msec(50) : msec(100);
  o.shape.hold = short_spans ? msec(100) : msec(200);
  o.shape.ramp_down = short_spans ? msec(50) : msec(100);
  o.cooldown = short_spans ? msec(100) : msec(200);
  o.syn_payload = 256;
  o.budget.max_sim_time = sec(10);
  Cell c;
  c.name = "faulted/PI+H+R/storm-collapse-mitigated";
  c.config = o.config;
  c.testbed = testbed_for(o.config, false, o.seed);
  c.testbed.guest_params.overload_mitigation = true;
  c.run = [o] {
    RunnerCost cost;
    const StormResult r = timed(cost, [&] { return run_storm(o, "storm"); });
    Digest d;
    d.add(r.attempted).add(r.established).add(r.retries).add(r.abandoned);
    d.add(r.client_pending_overflows).add(r.accepts).add(r.served);
    d.add(r.goodput_mbps).add(r.conns_per_sec);
    d.add(r.connect_p50_ms).add(r.connect_p99_ms);
    add_drops(d, r.drops);
    d.add(r.overload_max_rung).add(r.livelock_detections);
    d.add(r.ksoftirqd_defers).add(r.ksoftirqd_polls);
    d.add(r.episodes).add(r.episodes_recovered);
    d.add(r.mttr_p50).add(r.mttr_p99);
    d.add(static_cast<std::uint64_t>(r.worker_active_high_water));
    add_report(d, r.report);
    add_stages(d, r.stages);
    const StormShape& sh = o.shape;
    const SimDuration span =
        o.warmup + sh.ramp_up + sh.hold + sh.ramp_down + o.cooldown;
    CellOutcome out = finish(d, r.metrics, seconds(span), cost);
    out.app_ops = static_cast<double>(r.accepts);
    if (!r.acceptable()) fail(out, r.report.to_line());
    return out;
  };
  cells.push_back(std::move(c));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stream", "request",
                                                 "faulted"};
  return names;
}

std::vector<Cell> make_cells(const std::string& workload, std::uint64_t seed,
                             bool short_spans) {
  std::vector<Cell> cells;
  if (workload == "stream") add_stream_cells(cells, seed, short_spans);
  if (workload == "request") add_request_cells(cells, seed, short_spans);
  if (workload == "faulted") add_faulted_cells(cells, seed, short_spans);
  return cells;
}

}  // namespace perfbench
