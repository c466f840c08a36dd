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
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/runner.h"

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
  const Ramp calm{"calm", 1000, 3000, false};
  const Ramp surge{"surge", 2000, 30000, false};
  const Ramp collapse{"collapse", 4000, 400000, true};
  if (fast) return {calm, collapse};
  return {calm, surge, collapse};
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

  // Cell (s, p, m) is index (s * |ramps| + p) * |arms| + m. --observe
  // watches the calmest cell as the storm determinism oracle.
  const size_t cells = stacks.size() * ramp_list.size() * arms.size();
  std::vector<StormResult> results(cells);
  constexpr int kObserved = 0;
  parallel_for(static_cast<int>(cells), [&](int i) {
    const size_t m = static_cast<size_t>(i) % arms.size();
    const size_t p = static_cast<size_t>(i) / arms.size() % ramp_list.size();
    const size_t s = static_cast<size_t>(i) / arms.size() / ramp_list.size();
    StormOptions o =
        cell_options(args, stacks[s].config, ramp_list[p], arms[m]);
    if (i == kObserved) observe_request(args, o);
    results[static_cast<size_t>(i)] =
        run_storm(o, format("%s/%s/mitigation=%s", stacks[s].label,
                            ramp_list[p].label, arms[m] ? "on" : "off"));
  });

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
      report.add(cell + "off.ok", roff.acceptable() ? 1.0 : 0.0);
      report.add(cell + "on.ok", ron.report.ok() ? 1.0 : 0.0);
      // Counts are deterministic per seed: gated exactly.
      report.add(cell + "off.established",
                 static_cast<double>(roff.established));
      report.add(cell + "on.established",
                 static_cast<double>(ron.established));
      report.add(cell + "on.max_rung",
                 static_cast<double>(ron.overload_max_rung));
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
      report.add(cell + "retention_x", retained);
      report.add(cell + "off.livelocked", roff.livelocked ? 1.0 : 0.0);
      report.add(cell + "on.episodes_recovered",
                 static_cast<double>(ron.episodes_recovered));
      report.add(cell + "on.mttr_p50_us", ron.mttr_p50 / 1e3);
    }
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, results[kObserved])) return 1;

  // An expected livelock verdict is a cell succeeding at demonstrating the
  // failure mode (acceptable()); only the others fail the sweep. The raw
  // status survives in the CSV.
  bool cells_ok = true;
  for (const StormResult& r : results) {
    if (r.acceptable()) continue;
    std::printf("%s\n", r.report.to_line().c_str());
    cells_ok = false;
  }
  if (failures > 0) {
    std::printf("%d storm gate(s) failed\n", failures);
    return 1;
  }
  return cells_ok ? 0 : 1;
}
