// Fig. 8 — throughput of two I/O-intensive macro workloads under the four
// stacks: (a) Memcached driven by memaslap (16 threads x 16 concurrent,
// get/set 9:1); (b) Apache driven by ApacheBench (16 concurrent, 8KB
// pages).
//
// Paper shape: memcached — PI +18%, +H +21% more, full ES2 ~1.8x baseline;
// apache — PI +19%, +H +18% more, full ES2 ~2x baseline.
#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Fig. 8", "Memcached and Apache throughput (macro testbed)");

  MemcachedResult mem[4];
  ApacheResult ap[4];
  // Cell 2c is memcached and cell 2c + 1 Apache on config c. --observe
  // watches the full-ES2 memcached cell.
  constexpr int kObserved = 6;
  parallel_for(8, [&](int i) {
    const int c = i / 2;
    if (i % 2 == 0) {
      MemcachedOptions o;
      o.config = Es2Config::all4()[c];
      o.seed = args.seed;
      o.warmup = args.fast ? msec(200) : msec(400);
      o.measure = args.fast ? msec(400) : sec(1);
      if (i == kObserved) observe_request(args, o);
      mem[c] = run_memcached(o);
    } else {
      ApacheOptions o;
      o.config = Es2Config::all4()[c];
      o.seed = args.seed;
      o.warmup = args.fast ? msec(200) : msec(400);
      o.measure = args.fast ? msec(400) : sec(1);
      ap[c] = run_apache(o);
    }
  });

  CsvWriter csv({"workload", "config", "throughput", "throughput_mbps",
                 "latency_p50_ms", "latency_p99_ms"});

  std::printf("\n-- (a) Memcached (paper: PI +18%%, +H +21%%, full ~1.8x)\n");
  Table tm({"Config", "ops/s", "Mb/s", "vs baseline", "p50 lat", "p99 lat"});
  for (int c = 0; c < 4; ++c) {
    tm.add_row({Es2Config::all4()[c].name(), count_str(mem[c].ops_per_sec),
                fixed(mem[c].throughput_mbps, 0),
                fixed(mem[c].ops_per_sec / mem[0].ops_per_sec, 2) + "x",
                fixed(mem[c].latency.p50() / 1e6, 2) + "ms",
                fixed(mem[c].latency.p99() / 1e6, 2) + "ms"});
    csv.add_row({"memcached", Es2Config::all4()[c].name(),
                 fixed(mem[c].ops_per_sec, 0),
                 fixed(mem[c].throughput_mbps, 1),
                 fixed(mem[c].latency.p50() / 1e6, 3),
                 fixed(mem[c].latency.p99() / 1e6, 3)});
  }
  std::printf("%s", tm.render().c_str());

  std::printf("\n-- (b) Apache 8KB pages (paper: PI +19%%, +H +18%%, full ~2x)\n");
  Table ta({"Config", "req/s", "Mb/s", "vs baseline"});
  for (int c = 0; c < 4; ++c) {
    ta.add_row({Es2Config::all4()[c].name(), count_str(ap[c].requests_per_sec),
                fixed(ap[c].throughput_mbps, 0),
                fixed(ap[c].requests_per_sec / ap[0].requests_per_sec, 2) + "x"});
    csv.add_row({"apache", Es2Config::all4()[c].name(),
                 fixed(ap[c].requests_per_sec, 0),
                 fixed(ap[c].throughput_mbps, 1), "", ""});
  }
  std::printf("%s", ta.render().c_str());
  write_csv(args, "fig8", csv);

  BenchReport report = make_report(args, "fig8");
  const char* keys[] = {"baseline", "pi", "pi_h", "pi_h_r"};
  for (int c = 0; c < 4; ++c) {
    const std::string k = keys[c];
    report.add("memcached." + k + ".ops_per_sec", mem[c].ops_per_sec);
    report.add("memcached." + k + ".latency_p99_ms",
               mem[c].latency.p99() / 1e6);
    report.add("apache." + k + ".requests_per_sec", ap[c].requests_per_sec);
    report.add("apache." + k + ".throughput_mbps", ap[c].throughput_mbps);
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, mem[kObserved / 2])) return 1;
  return 0;
}
