// Fig. 9 — Httperf average TCP connection establishment time vs request
// rate (macro testbed).
//
// Paper shape: all four configs have short connect times below ~1,600
// req/s; the baseline's average connect time grows rapidly past ~1,800
// (suspending-event/SYN-backlog overflow), PI slightly later, and full
// ES2 stays low until ~2,600 req/s.
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Fig. 9", "Httperf mean TCP connect time vs request rate");

  const std::vector<double> rates =
      args.fast ? std::vector<double>{1400, 1900, 2400}
                : std::vector<double>{800,  1200, 1600, 1800, 2000,
                                      2200, 2400, 2600, 3000};

  const Es2Config configs[4] = {Es2Config::baseline(), Es2Config::pi(),
                                Es2Config::pi_h(), Es2Config::pi_h_r()};
  // Cell r * 4 + c is rates[r] on configs[c]. --observe watches full ES2
  // at the lowest (healthy) request rate.
  std::vector<HttperfResult> results(rates.size() * 4);
  constexpr int kObserved = 3;
  parallel_for(static_cast<int>(results.size()), [&](int i) {
    HttperfOptions o;
    o.config = configs[i % 4];
    o.rate_per_sec = rates[static_cast<size_t>(i / 4)];
    o.duration = args.fast ? sec(1) : sec(2);
    o.seed = args.seed;
    if (i == kObserved) observe_request(args, o);
    results[static_cast<size_t>(i)] = run_httperf(o);
  });

  Table t({"req rate", "Baseline", "PI", "PI+H", "PI+H+R"});
  CsvWriter csv({"rate", "config", "avg_connect_ms", "p99_connect_ms",
                 "established", "syn_retries"});
  for (size_t r = 0; r < rates.size(); ++r) {
    std::vector<std::string> row = {fixed(rates[r], 0) + "/s"};
    for (int c = 0; c < 4; ++c) {
      const HttperfResult& res = results[r * 4 + c];
      row.push_back(fixed(res.avg_connect_ms, 2) + "ms");
      csv.add_row({fixed(rates[r], 0), configs[c].name(),
                   fixed(res.avg_connect_ms, 3), fixed(res.p99_connect_ms, 3),
                   std::to_string(res.established),
                   std::to_string(res.retries)});
    }
    t.add_row(std::move(row));
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Paper: baseline knee ~1,800/s (SYN backlog overflow + 1s SYN\n"
      "retransmissions), full ES2 stays low until ~2,600/s.\n");
  write_csv(args, "fig9", csv);

  BenchReport report = make_report(args, "fig9");
  const char* keys[4] = {"baseline", "pi", "pi_h", "pi_h_r"};
  for (int c = 0; c < 4; ++c) {
    for (size_t r = 0; r < rates.size(); ++r) {
      const HttperfResult& res = results[r * 4 + c];
      report.add(std::string(keys[c]) + ".r" +
                     std::to_string(static_cast<int>(rates[r])) +
                     ".avg_connect_ms",
                 res.avg_connect_ms);
      report.add(std::string(keys[c]) + ".r" +
                     std::to_string(static_cast<int>(rates[r])) + ".established",
                 static_cast<double>(res.established));
    }
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, results[kObserved])) return 1;
  return 0;
}
