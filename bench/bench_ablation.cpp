// Ablation bench for ES2's design choices (DESIGN.md §4):
//
//   1. redirection target policy: paper (sticky + lightest + offline-head)
//      vs no-sticky vs round-robin vs random-offline prediction;
//   2. the offline prediction's value, visible in ping tail latency.
//
// Quota sensitivity is not re-run here: bench_fig4 sweeps the same UDP
// 256B cells (its `udp256.q*` rows).
#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Ablation", "ES2 design-choice ablations");

  // --- 1+2: redirection policies on ping latency -------------------------
  struct PolicyCase {
    const char* name;
    RedirectPolicy policy;
  };
  const PolicyCase policies[] = {
      {"paper (sticky+lightest+offline-head)", RedirectPolicy::kPaper},
      {"no-sticky", RedirectPolicy::kNoSticky},
      {"round-robin online", RedirectPolicy::kRoundRobin},
      {"random offline prediction", RedirectPolicy::kRandomOffline},
  };
  // --observe watches the paper's policy.
  PingResult ping_results[4];
  constexpr int kObserved = 0;
  parallel_for(4, [&](int i) {
    PingOptions o;
    o.config = Es2Config::pi_h_r();
    o.config.policy = policies[i].policy;
    o.samples = args.fast ? 40 : 120;
    o.interval = msec(80);
    o.seed = args.seed;
    if (i == kObserved) observe_request(args, o);
    ping_results[i] = run_ping(o);
  });

  std::printf("\n-- Redirection policy vs ping RTT (macro testbed)\n");
  Table tp({"Policy", "p50", "p90", "p99", "mean"});
  CsvWriter csv({"ablation", "variant", "metric", "value"});
  for (int i = 0; i < 4; ++i) {
    const Histogram& h = ping_results[i].rtt;
    tp.add_row({policies[i].name, fixed(h.p50() / 1e6, 2) + "ms",
                fixed(h.p90() / 1e6, 2) + "ms", fixed(h.p99() / 1e6, 2) + "ms",
                fixed(h.mean() / 1e6, 2) + "ms"});
    csv.add_row({"redirect_policy", policies[i].name, "p99_ms",
                 fixed(h.p99() / 1e6, 3)});
    csv.add_row({"redirect_policy", policies[i].name, "mean_ms",
                 fixed(h.mean() / 1e6, 3)});
  }
  std::printf("%s", tp.render().c_str());

  write_csv(args, "ablation", csv);

  BenchReport report = make_report(args, "ablation");
  const char* policy_keys[4] = {"paper", "no_sticky", "round_robin",
                                "random_offline"};
  for (int i = 0; i < 4; ++i) {
    const Histogram& h = ping_results[i].rtt;
    report.add(std::string("redirect.") + policy_keys[i] + ".rtt_p99_ms",
               h.p99() / 1e6);
    report.add(std::string("redirect.") + policy_keys[i] + ".rtt_mean_ms",
               h.mean() / 1e6);
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, ping_results[kObserved])) return 1;
  return 0;
}
