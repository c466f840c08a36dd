// Ablation bench for ES2's design choices (DESIGN.md §4):
//
//   1. redirection target policy: paper (sticky + lightest + offline-head)
//      vs no-sticky vs round-robin vs random-offline prediction;
//   2. the offline prediction's value, visible in ping tail latency;
//   3. quota sensitivity around the paper's chosen values (throughput cost
//      of smaller quotas).
#include <vector>

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
  PingResult ping_results[4];
  parallel_for(4, [&](int i) {
    PingOptions o;
    o.config = Es2Config::pi_h_r();
    o.config.policy = policies[i].policy;
    o.samples = args.fast ? 40 : 120;
    o.interval = msec(80);
    o.seed = args.seed;
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

  // --- 3: quota sensitivity around the chosen values ---------------------
  std::printf("\n-- Quota sensitivity, UDP 256B micro (paper picks 8)\n");
  const std::vector<int> quotas = {2, 4, 8, 16};
  std::vector<StreamResult> quota_results(quotas.size());
  std::vector<std::function<void()>> tasks;
  for (size_t q = 0; q < quotas.size(); ++q) {
    tasks.push_back([&, q] {
      StreamOptions o;
      o.config = Es2Config::pi_h(quotas[q]);
      o.proto = Proto::kUdp;
      o.msg_size = 256;
      o.seed = args.seed;
      o.warmup = args.fast ? msec(100) : msec(250);
      o.measure = args.fast ? msec(250) : msec(800);
      // --observe watches the paper's chosen quota (8).
      if (quotas[q] == 8) observe_request(args, o);
      quota_results[q] = run_stream(o);
    });
  }
  ParallelRunner().run(std::move(tasks));

  Table tq({"quota", "I/O exits/s", "packets/s", "note"});
  for (size_t q = 0; q < quotas.size(); ++q) {
    const StreamResult& r = quota_results[q];
    const char* note = quotas[q] == 8 ? "<- paper's choice"
                       : quotas[q] < 8 ? "smaller: switching overhead"
                                       : "larger: polling not sticky";
    tq.add_row({std::to_string(quotas[q]), count_str(r.exits.io_instruction),
                count_str(r.packets_per_sec), note});
    csv.add_row({"quota_udp", std::to_string(quotas[q]), "packets_per_sec",
                 fixed(r.packets_per_sec, 0)});
    csv.add_row({"quota_udp", std::to_string(quotas[q]), "io_exits_per_sec",
                 fixed(r.exits.io_instruction, 0)});
  }
  std::printf("%s", tq.render().c_str());

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
  std::vector<double> quota_curve;
  for (size_t q = 0; q < quotas.size(); ++q) {
    const StreamResult& r = quota_results[q];
    const std::string cell = "quota_udp.q" + std::to_string(quotas[q]);
    report.add(cell + ".packets_per_sec", r.packets_per_sec);
    report.add(cell + ".io_exits_per_sec", r.exits.io_instruction);
    quota_curve.push_back(r.packets_per_sec);
  }
  report.add_series("quota_udp.packets_per_sec", std::move(quota_curve));
  write_bench_report(args, report);

  const StreamResult& traced = quota_results[2];  // quota 8
  if (!export_artifacts(args, traced)) return 1;
  return 0;
}
