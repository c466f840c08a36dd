// Chaos sweep — the event path under seeded faults.
//
// Not a paper figure: this bench certifies robustness claims. It runs the
// netperf stream workload across loss-rate x stack cells with the full
// fault plan scaled by the loss rate (wire loss with a bursty component,
// swallowed/delayed kicks, dropped MSIs, vhost worker stalls, spurious
// interrupts), the invariant auditor on, and every cell supervised by the
// no-progress watchdog. A healthy stack must keep nonzero goodput at 1%
// loss; the recovery columns show *how* (fast retransmits, RTO fires,
// guest TX-watchdog re-kicks, vhost RX re-polls).
//
// `--wedge` instead runs the deliberately unrecoverable scenario — 100%
// kick loss with the guest TX watchdog disabled — and exits non-zero
// after the scenario watchdog converts the hang into a structured
// "WATCHDOG ..." report. That path is what keeps a chaos sweep from ever
// hanging CI.
//
// Usage: bench_chaos [--fast] [--seed=N] [--out=DIR] [--wedge]
#include <cctype>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/runner.h"

using namespace es2;
using namespace es2::bench;

namespace {

struct Stack {
  const char* label;
  Es2Config config;
};

FaultPlan plan_for(double loss) {
  FaultPlan f;
  if (loss <= 0) return f;  // all-off: no injector is ever constructed
  f.link_loss = loss;
  // A bursty component an order below the i.i.d. floor: rare excursions
  // into a bad state that drops half the packets it sees.
  f.link_burst.p_good_to_bad = loss / 10;
  f.link_burst.p_bad_to_good = 0.2;
  f.link_burst.loss_bad = 0.5;
  // Kept well below the loss rate: go-back-N has no SACK, so heavy
  // reordering manufactures duplicate ACKs for holes that do not exist.
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

int run_wedge(const BenchArgs& args) {
  print_header("Chaos (wedge)", "unrecoverable kick loss caught by watchdog");
  ChaosStreamOptions o;
  o.stream.config = Es2Config::pi();
  o.stream.vm_sends = true;
  o.stream.seed = args.seed;
  o.stream.warmup = msec(200);
  o.stream.measure = msec(800);
  o.faults.kick_loss = 1.0;  // every eventfd kick swallowed
  o.tx_watchdog = false;     // ... and nobody re-kicks
  o.budget.max_sim_time = sec(5);
  const ChaosStreamResult r = run_chaos_stream(o, "wedge-kick-loss");

  std::printf("%s\n", r.report.to_line().c_str());
  std::printf("kicks dropped: %lld, packets delivered after that: %.0f\n",
              static_cast<long long>(r.faults.kicks_dropped),
              r.stream.packets_per_sec);
  if (r.report.ok()) {
    std::printf("ERROR: wedge was not detected\n");
    return 1;
  }
  // Detection IS the pass condition, but the process still exits non-zero:
  // a sweep containing a wedged scenario must fail CI.
  return r.report.status == ScenarioStatus::kNoProgress ? 2 : 3;
}

/// Stack label -> metric-key fragment ("PI+H+R" -> "pi_h_r").
std::string stack_key(const char* label) {
  std::string key;
  for (const char* p = label; *p != '\0'; ++p) {
    if (*p == '+') {
      key += '_';
    } else {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
    }
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, {"--wedge"});
  if (args.has("--wedge")) return run_wedge(args);

  print_header("Chaos", "goodput and recovery under seeded faults");

  const std::vector<Stack> stacks = {
      {"Baseline", Es2Config::baseline()},
      {"PI", Es2Config::pi()},
      {"PI+H", Es2Config::pi_h()},
      {"PI+H+R", Es2Config::pi_h_r()},
  };
  const std::vector<double> losses = args.fast
                                         ? std::vector<double>{0, 0.01}
                                         : std::vector<double>{0, 0.001, 0.01,
                                                               0.05};

  // Cell i is loss i / |stacks| on stack i % |stacks|. --observe watches
  // the healthiest cell (first stack, zero loss) — the chaos determinism
  // oracle.
  std::vector<ChaosStreamResult> results(losses.size() * stacks.size());
  constexpr int kObserved = 0;
  parallel_for(static_cast<int>(results.size()), [&](int i) {
    const size_t l = static_cast<size_t>(i) / stacks.size();
    const size_t s = static_cast<size_t>(i) % stacks.size();
    ChaosStreamOptions o;
    o.stream.config = stacks[s].config;
    // Peer->VM TCP: exercises the peer's retransmit machinery, the vhost
    // RX path and the guest IRQ path all at once.
    o.stream.vm_sends = false;
    o.stream.seed = args.seed;
    o.stream.warmup = args.fast ? msec(150) : msec(300);
    o.stream.measure = args.fast ? msec(500) : msec(1500);
    o.faults = plan_for(losses[l]);
    // A capped-backoff RTO can go silent for up to
    // rto << max_rto_backoff = 320 ms; tolerate a few in a row before
    // calling the cell wedged.
    o.budget.progress_window = msec(100);
    o.budget.stall_windows = 12;
    if (i == kObserved) observe_request(args, o.stream);
    results[static_cast<size_t>(i)] = run_chaos_stream(
        o, format("%s/loss=%.3f%%", stacks[s].label, losses[l] * 100));
  });

  CsvWriter csv({"stack", "loss_pct", "status", "goodput_mbps",
                 "link_dropped", "sock_backlog_drops", "backpressure_drops",
                 "kicks_dropped", "fast_retransmits", "rto_retransmits",
                 "tx_watchdog_kicks", "rx_watchdog_polls", "rx_repolls",
                 "audit_violations"});
  Table t({"stack", "loss %", "status", "goodput Mb/s", "wire drops",
           "sock drops", "bp drops", "kick drops", "fast rtx", "rto rtx",
           "wd kicks", "wd polls", "re-polls", "audit"});
  for (size_t l = 0; l < losses.size(); ++l) {
    for (size_t s = 0; s < stacks.size(); ++s) {
      const ChaosStreamResult& r = results[l * stacks.size() + s];
      const std::string loss_pct = format("%.2f", losses[l] * 100);
      csv.add_row({stacks[s].label, loss_pct, to_string(r.report.status),
                   format("%.2f", r.stream.throughput_mbps),
                   std::to_string(r.stream.link_dropped),
                   std::to_string(r.stream.drops.sock_backlog),
                   std::to_string(r.stream.drops.backpressure),
                   std::to_string(r.faults.kicks_dropped),
                   std::to_string(r.fast_retransmits),
                   std::to_string(r.rto_retransmits),
                   std::to_string(r.tx_watchdog_kicks),
                   std::to_string(r.rx_watchdog_polls),
                   std::to_string(r.rx_repolls),
                   std::to_string(r.audit_violations)});
      t.add_row({stacks[s].label, loss_pct, to_string(r.report.status),
                 format("%.2f", r.stream.throughput_mbps),
                 with_commas(r.stream.link_dropped),
                 with_commas(r.stream.drops.sock_backlog),
                 with_commas(r.stream.drops.backpressure),
                 with_commas(r.faults.kicks_dropped),
                 with_commas(r.fast_retransmits),
                 with_commas(r.rto_retransmits),
                 with_commas(r.tx_watchdog_kicks),
                 with_commas(r.rx_watchdog_polls),
                 with_commas(r.rx_repolls),
                 with_commas(r.audit_violations)});
    }
  }
  std::printf("%s", t.render().c_str());
  write_csv(args, "chaos", csv);

  BenchReport report = make_report(args, "chaos");
  for (size_t l = 0; l < losses.size(); ++l) {
    for (size_t s = 0; s < stacks.size(); ++s) {
      const ChaosStreamResult& r = results[l * stacks.size() + s];
      const std::string cell =
          stack_key(stacks[s].label) + ".loss" + format("%g", losses[l] * 100) +
          "pct.";
      // Every row is a same-seed deterministic output: gated exactly. A
      // cell that wedges where the baseline run survived (or vice versa)
      // fails the diff regardless of goodput.
      report.add(cell + "ok", r.report.ok() ? 1.0 : 0.0);
      report.add(cell + "goodput_mbps", r.stream.throughput_mbps);
      report.add(cell + "fast_retransmits",
                 static_cast<double>(r.fast_retransmits));
      report.add(cell + "rto_retransmits",
                 static_cast<double>(r.rto_retransmits));
      report.add(cell + "rx_repolls", static_cast<double>(r.rx_repolls));
      report.add(cell + "audit_violations",
                 static_cast<double>(r.audit_violations));
    }
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, results[kObserved].stream)) return 1;

  int exit_code = 0;
  for (const ChaosStreamResult& r : results) {
    if (r.report.ok()) continue;
    std::printf("%s\n", r.report.to_line().c_str());
    exit_code = 1;
  }
  return exit_code;
}
