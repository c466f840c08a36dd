// Connection-storm sweep — overload, receive livelock, graceful degradation.
//
// Not a paper figure: this bench certifies the overload-resilience claims.
// Each cell drives the guest's accept path with a SYN-flood-shaped flash
// crowd (ramp to peak, hold, ramp down, diurnal bursts, TFO payloads, an
// aggressive SYN-RTO retransmit flywheel) across stack x ramp x
// mitigation cells. The "collapse" ramp deliberately outruns the guest's
// NAPI drain rate: with mitigation off the vCPU wedges in softirq — the
// classic receive livelock, which the scenario watchdog must classify as
// kLivelock (busy, not wedged) — and with the overload ladder armed
// (livelock detector -> ksoftirqd polling -> ingress backpressure ->
// accept shedding) the same offered load must retain at least 2x the
// established connections.
//
// Every drop on the path is accounted by canonical cause
// (drops{cause=wire|backpressure|sock_backlog|syn_backlog|accept_queue|
// accept_shed}); the CSV is the blame table of where load was shed.
//
// Usage: bench_storm [--fast] [--seed=N] [--out=DIR]
//                    [--ckpt=DIR | --resume=DIR] [--retries=N]
#include <string>
#include <vector>

#include "base/json.h"
#include "bench_common.h"
#include "harness/runner.h"
#include "metrics/metrics.h"

using namespace es2;
using namespace es2::bench;

namespace {

struct Stack {
  const char* label;
  const char* key;
  Es2Config config;
};

struct Ramp {
  const char* label;
  double base_rate;   // conn/s
  double peak_rate;   // conn/s at the top of the ramp
  bool collapses;     // expected to livelock with mitigation off
};

/// The three offered-load regimes. Capacity context: one accept costs
/// ~113 us of guest CPU (~8k accepts/s ceiling), and the NAPI drain rate
/// for TFO SYNs is ~270k pps — "surge" overflows the accept path without
/// outrunning softirq, "collapse" (with the burst multiplier and the RTO
/// flywheel on top) outruns the poll loop itself.
std::vector<Ramp> ramps(bool fast) {
  std::vector<Ramp> r = {
      {"calm", 1000, 3000, false},
      {"collapse", 4000, 400000, true},
  };
  if (!fast) r.insert(r.begin() + 1, Ramp{"surge", 2000, 30000, false});
  return r;
}

StormOptions cell_options(const BenchArgs& args, const Es2Config& config,
                          const Ramp& ramp, bool mitigation) {
  StormOptions o;
  o.config = config;
  o.mitigation = mitigation;
  o.seed = args.seed;
  o.shape.base_rate = ramp.base_rate;
  o.shape.peak_rate = ramp.peak_rate;
  o.shape.ramp_up = args.fast ? msec(200) : msec(300);
  o.shape.hold = args.fast ? msec(500) : msec(800);
  o.shape.ramp_down = args.fast ? msec(200) : msec(300);
  o.cooldown = args.fast ? msec(300) : msec(500);
  // The collapse ramp carries a fatter TFO request, pushing the per-packet
  // receive cost high enough that the offered load outruns the poll loop.
  if (ramp.collapses) o.syn_payload = 256;
  o.expect_livelock = ramp.collapses && !mitigation;
  // A collapse cell spends the whole hold wedged on purpose; give the
  // watchdog enough rope to classify it rather than time out.
  o.budget.max_sim_time = sec(10);
  return o;
}

std::string cell_artifact(const StormResult& r) {
  Json a = Json::object();
  auto put = [&a](const char* k, double v) { a.set(k, Json::number(v)); };
  put("attempted", static_cast<double>(r.attempted));
  put("established", static_cast<double>(r.established));
  put("retries", static_cast<double>(r.retries));
  put("abandoned", static_cast<double>(r.abandoned));
  put("accepts", static_cast<double>(r.accepts));
  put("served", static_cast<double>(r.served));
  put("goodput_mbps", r.goodput_mbps);
  put("conns_per_sec", r.conns_per_sec);
  put("connect_p50_ms", r.connect_p50_ms);
  put("connect_p99_ms", r.connect_p99_ms);
  put("drops_wire", static_cast<double>(r.drops.wire));
  put("drops_backpressure", static_cast<double>(r.drops.backpressure));
  put("drops_sock_backlog", static_cast<double>(r.drops.sock_backlog));
  put("drops_syn_backlog", static_cast<double>(r.drops.syn_backlog));
  put("drops_accept_queue", static_cast<double>(r.drops.accept_queue));
  put("drops_accept_shed", static_cast<double>(r.drops.accept_shed));
  put("max_rung", static_cast<double>(r.overload_max_rung));
  put("detections", static_cast<double>(r.livelock_detections));
  put("ksoftirqd_polls", static_cast<double>(r.ksoftirqd_polls));
  put("episodes", static_cast<double>(r.episodes));
  put("episodes_recovered", static_cast<double>(r.episodes_recovered));
  put("mttr_p50_ns", static_cast<double>(r.mttr_p50));
  put("mttr_p99_ns", static_cast<double>(r.mttr_p99));
  put("livelocked", r.livelocked ? 1.0 : 0.0);
  put("livelock_expected", r.livelock_expected ? 1.0 : 0.0);
  return a.dump();
}

bool restore_cell(const ScenarioReport& rep, StormResult* r) {
  Json a;
  std::string error;
  if (!Json::parse(rep.artifact, &a, &error) || !a.is_object()) return false;
  r->report = rep;
  auto i64 = [&a](const char* k) {
    return static_cast<std::int64_t>(a.number_or(k, 0));
  };
  r->attempted = i64("attempted");
  r->established = i64("established");
  r->retries = i64("retries");
  r->abandoned = i64("abandoned");
  r->accepts = i64("accepts");
  r->served = i64("served");
  r->goodput_mbps = a.number_or("goodput_mbps", 0);
  r->conns_per_sec = a.number_or("conns_per_sec", 0);
  r->connect_p50_ms = a.number_or("connect_p50_ms", 0);
  r->connect_p99_ms = a.number_or("connect_p99_ms", 0);
  r->drops.wire = i64("drops_wire");
  r->drops.backpressure = i64("drops_backpressure");
  r->drops.sock_backlog = i64("drops_sock_backlog");
  r->drops.syn_backlog = i64("drops_syn_backlog");
  r->drops.accept_queue = i64("drops_accept_queue");
  r->drops.accept_shed = i64("drops_accept_shed");
  r->overload_max_rung = static_cast<int>(a.number_or("max_rung", 0));
  r->livelock_detections = i64("detections");
  r->ksoftirqd_polls = i64("ksoftirqd_polls");
  r->episodes = i64("episodes");
  r->episodes_recovered = i64("episodes_recovered");
  r->mttr_p50 = static_cast<SimDuration>(a.number_or("mttr_p50_ns", 0));
  r->mttr_p99 = static_cast<SimDuration>(a.number_or("mttr_p99_ns", 0));
  r->livelocked = a.number_or("livelocked", 0) != 0;
  r->livelock_expected = a.number_or("livelock_expected", 0) != 0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Storm", "connection storms, livelock, graceful degradation");

  const std::vector<Stack> stacks = {
      {"Baseline", "baseline", Es2Config::baseline()},
      {"PI+H+R", "pi_h_r", Es2Config::pi_h_r()},
  };
  const std::vector<Ramp> ramp_list = ramps(args.fast);
  const std::vector<bool> arms = {false, true};

  const size_t cells = stacks.size() * ramp_list.size() * arms.size();
  std::vector<StormResult> results(cells);
  MetricsRegistry sweep_registry;
  RunnerOptions ro = runner_options(args);
  ro.registry = &sweep_registry;
  ExperimentRunner runner(ro);
  for (size_t s = 0; s < stacks.size(); ++s) {
    for (size_t p = 0; p < ramp_list.size(); ++p) {
      for (size_t m = 0; m < arms.size(); ++m) {
        const size_t idx = (s * ramp_list.size() + p) * arms.size() + m;
        runner.add(
            format("%s/%s/mitigation=%s", stacks[s].label,
                   ramp_list[p].label, arms[m] ? "on" : "off"),
            [&, s, p, m, idx](const std::string& name) {
              StormOptions o =
                  cell_options(args, stacks[s].config, ramp_list[p], arms[m]);
              // --observe watches the calmest cell as the storm
              // determinism oracle.
              if (idx == 0) observe_request(args, o);
              results[idx] = run_storm(o, name);
              ScenarioReport rep = results[idx].report;
              // An expected livelock verdict is this cell succeeding at
              // demonstrating the failure mode; report it as OK so the
              // runner does not retry or fail the sweep on it. The raw
              // status survives in the artifact and CSV.
              if (results[idx].acceptable()) {
                rep.status = ScenarioStatus::kOk;
                rep.detail.clear();
              }
              rep.artifact = cell_artifact(results[idx]);
              return rep;
            });
      }
    }
  }
  runner.run_all();

  for (size_t i = 0; i < runner.reports().size(); ++i) {
    const ScenarioReport& rep = runner.reports()[i];
    if (rep.resumed && !restore_cell(rep, &results[i])) {
      std::printf("[WARNING: unusable checkpoint artifact for %s]\n",
                  rep.name.c_str());
    }
  }
  if (runner.resumed_cells() > 0 || runner.retries() > 0) {
    std::printf("[runner: %lld cells resumed from checkpoint, %lld retries]\n",
                static_cast<long long>(runner.resumed_cells()),
                static_cast<long long>(runner.retries()));
  }

  CsvWriter csv({"stack", "ramp", "mitigation", "status", "established",
                 "attempted", "served", "goodput_mbps", "connect_p99_ms",
                 "drops_backpressure", "drops_sock_backlog",
                 "drops_syn_backlog", "drops_accept_queue",
                 "drops_accept_shed", "max_rung", "episodes",
                 "episodes_recovered", "mttr_p50_us"});
  Table t({"stack", "ramp", "mit", "status", "estab", "served",
           "goodput Mb/s", "conn p99 ms", "bp drops", "sock drops",
           "syn drops", "aq drops", "shed", "rung", "mttr p50 us"});
  for (size_t s = 0; s < stacks.size(); ++s) {
    for (size_t p = 0; p < ramp_list.size(); ++p) {
      for (size_t m = 0; m < arms.size(); ++m) {
        const StormResult& r =
            results[(s * ramp_list.size() + p) * arms.size() + m];
        const char* mit = arms[m] ? "on" : "off";
        const std::string status = r.livelocked && r.livelock_expected
                                       ? "livelock(expected)"
                                       : to_string(r.report.status);
        csv.add_row({stacks[s].label, ramp_list[p].label, mit, status,
                     std::to_string(r.established),
                     std::to_string(r.attempted), std::to_string(r.served),
                     format("%.2f", r.goodput_mbps),
                     format("%.2f", r.connect_p99_ms),
                     std::to_string(r.drops.backpressure),
                     std::to_string(r.drops.sock_backlog),
                     std::to_string(r.drops.syn_backlog),
                     std::to_string(r.drops.accept_queue),
                     std::to_string(r.drops.accept_shed),
                     std::to_string(r.overload_max_rung),
                     std::to_string(r.episodes),
                     std::to_string(r.episodes_recovered),
                     format("%.1f", r.mttr_p50 / 1e3)});
        t.add_row({stacks[s].label, ramp_list[p].label, mit, status,
                   with_commas(r.established), with_commas(r.served),
                   format("%.2f", r.goodput_mbps),
                   format("%.2f", r.connect_p99_ms),
                   with_commas(r.drops.backpressure),
                   with_commas(r.drops.sock_backlog),
                   with_commas(r.drops.syn_backlog),
                   with_commas(r.drops.accept_queue),
                   with_commas(r.drops.accept_shed),
                   std::to_string(r.overload_max_rung),
                   format("%.1f", r.mttr_p50 / 1e3)});
      }
    }
  }
  std::printf("%s", t.render().c_str());
  write_csv(args, "storm", csv);

  // In-binary hard gates: the sweep's reason to exist.
  int failures = 0;
  auto require = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  BenchReport report = make_report(args, "storm");
  for (size_t s = 0; s < stacks.size(); ++s) {
    for (size_t p = 0; p < ramp_list.size(); ++p) {
      const size_t off = (s * ramp_list.size() + p) * arms.size();
      const StormResult& roff = results[off];
      const StormResult& ron = results[off + 1];
      const std::string cell = std::string(stacks[s].key) + "." +
                               ramp_list[p].label + ".";
      require(roff.acceptable(), cell + "off: " + roff.report.to_line());
      require(ron.report.ok(), cell + "on: " + ron.report.to_line());
      report.add(cell + "off.ok", roff.acceptable() ? 1.0 : 0.0, 0.0);
      report.add(cell + "on.ok", ron.report.ok() ? 1.0 : 0.0, 0.0);
      // Counts are deterministic per seed: gated exactly.
      report.add(cell + "off.established",
                 static_cast<double>(roff.established), 0.0);
      report.add(cell + "on.established",
                 static_cast<double>(ron.established), 0.0);
      report.add(cell + "on.max_rung",
                 static_cast<double>(ron.overload_max_rung), 0.0);
      if (!ramp_list[p].collapses) {
        // Benign ramps: mitigation must be a no-op verdict-wise, and the
        // ladder must not fire (no false-positive livelock detections).
        require(!roff.livelocked, cell + "off livelocked on a benign ramp");
        require(ron.livelock_detections == 0,
                cell + "on: false-positive livelock detection");
        continue;
      }
      // The collapse ramp: mitigation off must demonstrably livelock...
      require(roff.livelocked,
              cell + "off did not livelock at the collapse ramp");
      // ... and the armed run must detect it, recover every episode, and
      // retain at least 2x the established connections.
      require(ron.livelock_detections > 0, cell + "on: detector never fired");
      require(ron.episodes > 0 && ron.episodes_recovered == ron.episodes,
              format("%son: %lld/%lld livelock episodes recovered",
                     cell.c_str(),
                     static_cast<long long>(ron.episodes_recovered),
                     static_cast<long long>(ron.episodes)));
      const double retained =
          static_cast<double>(ron.established) /
          static_cast<double>(roff.established > 0 ? roff.established : 1);
      require(retained >= 2.0,
              format("%sgoodput retention %.2fx < 2x (on %lld vs off %lld)",
                     cell.c_str(), retained,
                     static_cast<long long>(ron.established),
                     static_cast<long long>(roff.established)));
      report.add(cell + "retention_x", retained, 0.0);
      report.add(cell + "off.livelocked", roff.livelocked ? 1.0 : 0.0, 0.0);
      report.add(cell + "on.episodes_recovered",
                 static_cast<double>(ron.episodes_recovered), 0.0);
      report.add_info(cell + "on.mttr_p50_us", ron.mttr_p50 / 1e3);
    }
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, results[0])) return 1;

  runner.print_failures(stdout);
  if (failures > 0) {
    std::printf("%d storm gate(s) failed\n", failures);
    return 1;
  }
  return runner.exit_code();
}
