// Passivity of all three observers across every runner.
//
// Each case runs one runner twice on a short span: once with epoch hashing
// only, once with trace, metrics sampling and epoch hashing all on. Observing must not change the run: every result scalar and the
// epoch-hash series must be equal. Each artifact must be present exactly
// when its observer was requested. The metrics sampler stays at its
// default (on) in both runs: it is itself a hashed component, so turning
// it off would change the hash series by construction.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <ostream>
#include <string>

#include "harness/experiments.h"

namespace es2 {
namespace {

using Scalars = std::map<std::string, double>;

struct Outcome {
  Scalars scalars;
  RunArtifacts artifacts;
};

void add_histogram(Scalars& s, const std::string& name, const Histogram& h) {
  s[name + ".count"] = static_cast<double>(h.count());
  s[name + ".mean"] = h.mean();
  s[name + ".p50"] = static_cast<double>(h.p50());
  s[name + ".p90"] = static_cast<double>(h.p90());
  s[name + ".p99"] = static_cast<double>(h.p99());
  s[name + ".max"] = static_cast<double>(h.max());
}

void add_drops(Scalars& s, const DropCounts& d) {
  s["drops.wire"] = static_cast<double>(d.wire);
  s["drops.backpressure"] = static_cast<double>(d.backpressure);
  s["drops.sock_backlog"] = static_cast<double>(d.sock_backlog);
  s["drops.syn_backlog"] = static_cast<double>(d.syn_backlog);
  s["drops.accept_queue"] = static_cast<double>(d.accept_queue);
  s["drops.accept_shed"] = static_cast<double>(d.accept_shed);
  s["drops.worker_queue"] = static_cast<double>(d.worker_queue);
}

void add_report(Scalars& s, const ScenarioReport& r) {
  s["report.status"] = static_cast<double>(r.status);
  s["report.sim_now"] = static_cast<double>(r.sim_now);
  s["report.events"] = static_cast<double>(r.events);
}

/// The scalars every run shares: its fired-event count (an observer that
/// scheduled work would move it) and the artifacts' passive twin.
Outcome outcome_of(const RunArtifacts& a) {
  Outcome out;
  out.artifacts = a;
  out.scalars["eventcore.fired"] = a.metrics->value("eventcore.fired", -1);
  return out;
}

Outcome stream_outcome(const StreamResult& r) {
  Outcome out = outcome_of(r);
  Scalars& s = out.scalars;
  s["exits.interrupt_delivery"] = r.exits.interrupt_delivery;
  s["exits.interrupt_completion"] = r.exits.interrupt_completion;
  s["exits.io_instruction"] = r.exits.io_instruction;
  s["exits.others"] = r.exits.others;
  s["exits.total"] = r.exits.total;
  s["exits.tig_percent"] = r.exits.tig_percent;
  s["throughput_mbps"] = r.throughput_mbps;
  s["packets_per_sec"] = r.packets_per_sec;
  s["kicks_per_sec"] = r.kicks_per_sec;
  s["guest_irqs_per_sec"] = r.guest_irqs_per_sec;
  s["rx_dropped"] = static_cast<double>(r.rx_dropped);
  s["link_dropped"] = static_cast<double>(r.link_dropped);
  add_drops(s, r.drops);
  return out;
}

Outcome chaos_outcome(const ChaosStreamResult& r) {
  Outcome out = stream_outcome(r.stream);
  Scalars& s = out.scalars;
  const FaultStats& f = r.faults;
  s["faults.link_dropped"] = static_cast<double>(f.link_dropped);
  s["faults.link_reordered"] = static_cast<double>(f.link_reordered);
  s["faults.link_duplicated"] = static_cast<double>(f.link_duplicated);
  s["faults.kicks_dropped"] = static_cast<double>(f.kicks_dropped);
  s["faults.kicks_delayed"] = static_cast<double>(f.kicks_delayed);
  s["faults.msis_dropped"] = static_cast<double>(f.msis_dropped);
  s["faults.worker_stalls"] = static_cast<double>(f.worker_stalls);
  s["faults.spurious_irqs"] = static_cast<double>(f.spurious_irqs);
  s["faults.desc_corruptions"] = static_cast<double>(f.desc_corruptions);
  s["faults.avail_tears"] = static_cast<double>(f.avail_tears);
  s["faults.handler_wedges"] = static_cast<double>(f.handler_wedges);
  s["faults.worker_crashes"] = static_cast<double>(f.worker_crashes);
  s["fast_retransmits"] = static_cast<double>(r.fast_retransmits);
  s["rto_retransmits"] = static_cast<double>(r.rto_retransmits);
  s["tx_watchdog_kicks"] = static_cast<double>(r.tx_watchdog_kicks);
  s["rx_watchdog_polls"] = static_cast<double>(r.rx_watchdog_polls);
  s["rx_repolls"] = static_cast<double>(r.rx_repolls);
  s["audit_sweeps"] = static_cast<double>(r.audit_sweeps);
  s["audit_violations"] = static_cast<double>(r.audit_violations);
  add_report(s, r.report);
  return out;
}

Outcome recovery_outcome(const RecoveryStreamResult& r) {
  Outcome out = chaos_outcome(r.chaos);
  Scalars& s = out.scalars;
  s["injected"] = static_cast<double>(r.injected);
  s["recovered"] = static_cast<double>(r.recovered);
  s["unrecovered"] = static_cast<double>(r.unrecovered);
  s["mttr_p50"] = static_cast<double>(r.mttr_p50);
  s["mttr_p99"] = static_cast<double>(r.mttr_p99);
  s["modes"] = static_cast<double>(r.modes.size());
  for (const RecoveryModeStats& m : r.modes) {
    const std::string k = std::string("mode.") + lifecycle_fault_name(m.mode);
    s[k + ".injected"] = static_cast<double>(m.injected);
    s[k + ".recovered"] = static_cast<double>(m.recovered);
    s[k + ".mttr_p50"] = static_cast<double>(m.mttr_p50);
    s[k + ".mttr_p99"] = static_cast<double>(m.mttr_p99);
  }
  s["rung_watchdog"] = static_cast<double>(r.rung_watchdog);
  s["rung_vhost_repoll"] = static_cast<double>(r.rung_vhost_repoll);
  s["rung_queue_reset"] = static_cast<double>(r.rung_queue_reset);
  s["rung_device_reset"] = static_cast<double>(r.rung_device_reset);
  s["ring_faults_detected"] = static_cast<double>(r.ring_faults_detected);
  s["queue_resets"] = static_cast<double>(r.queue_resets);
  s["device_resets"] = static_cast<double>(r.device_resets);
  s["renegotiations"] = static_cast<double>(r.renegotiations);
  s["ladder_queue_resets"] = static_cast<double>(r.ladder_queue_resets);
  s["ladder_device_resets"] = static_cast<double>(r.ladder_device_resets);
  s["worker_crashes"] = static_cast<double>(r.worker_crashes);
  s["worker_restarts"] = static_cast<double>(r.worker_restarts);
  s["wedges"] = static_cast<double>(r.wedges.size());
  return out;
}

StreamOptions short_stream() {
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.vm_sends = false;
  o.warmup = msec(50);
  o.measure = msec(150);
  return o;
}

ChaosStreamOptions short_chaos() {
  ChaosStreamOptions o;
  o.stream = short_stream();
  o.faults.link_loss = 0.01;
  o.faults.kick_loss = 0.002;
  o.faults.worker_stall_prob = 0.01;
  return o;
}

struct RunnerCase {
  const char* name;
  std::function<Outcome(const ObserveOptions&)> run;
};

void PrintTo(const RunnerCase& c, std::ostream* os) { *os << c.name; }

const RunnerCase kRunners[] = {
    {"stream",
     [](const ObserveOptions& obs) {
       StreamOptions o = short_stream();
       static_cast<ObserveOptions&>(o) = obs;
       return stream_outcome(run_stream(o));
     }},
    {"chaos",
     [](const ObserveOptions& obs) {
       ChaosStreamOptions o = short_chaos();
       static_cast<ObserveOptions&>(o.stream) = obs;
       return chaos_outcome(run_chaos_stream(o));
     }},
    {"recovery",
     [](const ObserveOptions& obs) {
       RecoveryStreamOptions o;
       o.chaos.stream = short_stream();
       o.chaos.faults.handler_wedge_period = msec(41);
       o.chaos.faults.worker_crash_period = msec(53);
       static_cast<ObserveOptions&>(o.chaos.stream) = obs;
       return recovery_outcome(run_recovery_stream(o));
     }},
    {"ping",
     [](const ObserveOptions& obs) {
       PingOptions o;
       o.config = Es2Config::pi_h_r();
       o.samples = 20;
       o.interval = msec(10);
       static_cast<ObserveOptions&>(o) = obs;
       const PingResult r = run_ping(o);
       Outcome out = outcome_of(r);
       add_histogram(out.scalars, "rtt", r.rtt);
       out.scalars["samples"] = static_cast<double>(r.samples.size());
       for (std::size_t i = 0; i < r.samples.size(); ++i) {
         out.scalars["sample." + std::to_string(i)] =
             static_cast<double>(r.samples[i]);
       }
       out.scalars["lost"] = static_cast<double>(r.lost);
       return out;
     }},
    {"memcached",
     [](const ObserveOptions& obs) {
       MemcachedOptions o;
       o.config = Es2Config::pi_h_r();
       o.warmup = msec(50);
       o.measure = msec(100);
       static_cast<ObserveOptions&>(o) = obs;
       const MemcachedResult r = run_memcached(o);
       Outcome out = outcome_of(r);
       out.scalars["ops_per_sec"] = r.ops_per_sec;
       out.scalars["throughput_mbps"] = r.throughput_mbps;
       add_histogram(out.scalars, "latency", r.latency);
       return out;
     }},
    {"apache",
     [](const ObserveOptions& obs) {
       ApacheOptions o;
       o.config = Es2Config::pi_h_r();
       o.warmup = msec(50);
       o.measure = msec(100);
       static_cast<ObserveOptions&>(o) = obs;
       const ApacheResult r = run_apache(o);
       Outcome out = outcome_of(r);
       out.scalars["requests_per_sec"] = r.requests_per_sec;
       out.scalars["throughput_mbps"] = r.throughput_mbps;
       return out;
     }},
    {"httperf",
     [](const ObserveOptions& obs) {
       HttperfOptions o;
       o.config = Es2Config::pi_h_r();
       o.duration = msec(200);
       static_cast<ObserveOptions&>(o) = obs;
       const HttperfResult r = run_httperf(o);
       Outcome out = outcome_of(r);
       out.scalars["avg_connect_ms"] = r.avg_connect_ms;
       out.scalars["p99_connect_ms"] = r.p99_connect_ms;
       out.scalars["established"] = static_cast<double>(r.established);
       out.scalars["retries"] = static_cast<double>(r.retries);
       return out;
     }},
    {"storm",
     [](const ObserveOptions& obs) {
       StormOptions o;
       o.config = Es2Config::baseline();
       o.mitigation = true;
       o.shape.base_rate = 1000;
       o.shape.peak_rate = 3000;
       o.shape.ramp_up = msec(50);
       o.shape.hold = msec(100);
       o.shape.ramp_down = msec(50);
       o.cooldown = msec(50);
       o.budget.max_sim_time = sec(5);
       static_cast<ObserveOptions&>(o) = obs;
       const StormResult r = run_storm(o);
       Outcome out = outcome_of(r);
       Scalars& s = out.scalars;
       s["attempted"] = static_cast<double>(r.attempted);
       s["established"] = static_cast<double>(r.established);
       s["retries"] = static_cast<double>(r.retries);
       s["abandoned"] = static_cast<double>(r.abandoned);
       s["client_pending_overflows"] =
           static_cast<double>(r.client_pending_overflows);
       s["accepts"] = static_cast<double>(r.accepts);
       s["served"] = static_cast<double>(r.served);
       s["goodput_mbps"] = r.goodput_mbps;
       s["conns_per_sec"] = r.conns_per_sec;
       s["connect_p50_ms"] = r.connect_p50_ms;
       s["connect_p99_ms"] = r.connect_p99_ms;
       add_drops(s, r.drops);
       s["overload_max_rung"] = r.overload_max_rung;
       s["livelock_detections"] = static_cast<double>(r.livelock_detections);
       s["ksoftirqd_defers"] = static_cast<double>(r.ksoftirqd_defers);
       s["ksoftirqd_polls"] = static_cast<double>(r.ksoftirqd_polls);
       s["episodes"] = static_cast<double>(r.episodes);
       s["episodes_recovered"] = static_cast<double>(r.episodes_recovered);
       s["mttr_p50"] = static_cast<double>(r.mttr_p50);
       s["mttr_p99"] = static_cast<double>(r.mttr_p99);
       s["worker_active_high_water"] =
           static_cast<double>(r.worker_active_high_water);
       add_report(s, r.report);
       s["livelocked"] = r.livelocked;
       return out;
     }},
};

class ObservePassivity : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(ObservePassivity, EveryObserverOnChangesNothing) {
  ObserveOptions hashing;
  hashing.snapshot.hash_epochs = true;
  ObserveOptions all = hashing;
  all.trace.enabled = true;
  all.trace.capacity = std::size_t{1} << 18;
  all.metrics.enabled = true;

  const Outcome plain = GetParam().run(hashing);
  const Outcome observed = GetParam().run(all);

  EXPECT_EQ(plain.scalars, observed.scalars);
  ASSERT_NE(plain.artifacts.hashes, nullptr);
  ASSERT_NE(observed.artifacts.hashes, nullptr);
  EXPECT_FALSE(plain.artifacts.hashes->entries.empty());
  EXPECT_EQ(plain.artifacts.hashes->to_json_text(),
            observed.artifacts.hashes->to_json_text())
      << find_divergence(*plain.artifacts.hashes, *observed.artifacts.hashes)
             .detail;

  // Each artifact is present exactly when its observer was requested.
  EXPECT_EQ(plain.artifacts.trace, nullptr);
  EXPECT_EQ(plain.artifacts.stages.journeys, 0);
  ASSERT_NE(observed.artifacts.trace, nullptr);
  EXPECT_FALSE(observed.artifacts.trace->records.empty());
  EXPECT_GT(observed.artifacts.stages.journeys, 0);
  ASSERT_NE(plain.artifacts.metrics, nullptr);
  ASSERT_NE(observed.artifacts.metrics, nullptr);
  EXPECT_GT(observed.artifacts.metrics->sampler_frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRunners, ObservePassivity, ::testing::ValuesIn(kRunners),
    [](const ::testing::TestParamInfo<RunnerCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace es2
