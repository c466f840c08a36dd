// Fig. 4 — reduction of I/O-instruction exits for a VM sending TCP/UDP
// streams under different quota values (the quota selection experiment).
//
// Paper shape: UDP (a) drops from ~100k/s to <10k at quota 32, ~1k at 16,
// <0.1k at 8 and below; 256B vs 1024B nearly identical; TCP (b) declines
// gradually from 64 to 4, with quota 2 and 4 similar, under 10k/s.
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Fig. 4", "I/O instruction exits vs quota (quota selection)");

  struct Case {
    const char* label;
    Proto proto;
    Bytes msg;
  };
  const Case cases[] = {
      {"UDP 256B", Proto::kUdp, 256},
      {"UDP 1024B", Proto::kUdp, 1024},
      {"TCP 1024B", Proto::kTcp, 1024},
  };
  // quota 0 = stock vhost (no hybrid) = the baseline bar in the figure.
  const std::vector<int> quotas = {0, 64, 32, 16, 8, 4, 2};

  CsvWriter csv({"case", "quota", "io_exits_per_sec", "packets_per_sec",
                 "tig_percent"});

  // Cell c * |quotas| + q is case c at quotas[q]. --observe watches TCP
  // 1024B at the paper-selected quota 4.
  std::vector<StreamResult> results(3 * quotas.size());
  const int observed = static_cast<int>(2 * quotas.size() + 5);
  parallel_for(static_cast<int>(results.size()), [&](int i) {
    const size_t c = static_cast<size_t>(i) / quotas.size();
    const size_t q = static_cast<size_t>(i) % quotas.size();
    StreamOptions o;
    o.config = quotas[q] == 0 ? Es2Config::pi() : Es2Config::pi_h(quotas[q]);
    o.proto = cases[c].proto;
    o.msg_size = cases[c].msg;
    o.vm_sends = true;
    o.seed = args.seed;
    o.warmup = args.fast ? msec(100) : msec(250);
    o.measure = args.fast ? msec(250) : msec(800);
    if (i == observed) observe_request(args, o);
    results[static_cast<size_t>(i)] = run_stream(o);
  });

  for (size_t c = 0; c < 3; ++c) {
    Table t({"quota", "I/O exits/s", "packets/s", "TIG %"});
    for (size_t q = 0; q < quotas.size(); ++q) {
      const StreamResult& r = results[c * quotas.size() + q];
      const std::string quota_label =
          quotas[q] == 0 ? "stock" : std::to_string(quotas[q]);
      t.add_row({quota_label, count_str(r.exits.io_instruction),
                 count_str(r.packets_per_sec), fixed(r.exits.tig_percent, 1)});
      csv.add_row({cases[c].label, quota_label,
                   fixed(r.exits.io_instruction, 0),
                   fixed(r.packets_per_sec, 0),
                   fixed(r.exits.tig_percent, 2)});
    }
    std::printf("\n-- %s (paper: %s)\n%s", cases[c].label,
                cases[c].proto == Proto::kUdp
                    ? "~100k stock; <10k @32; ~1k @16; <0.1k @<=8"
                    : "gradual decline 64->4; @2 and @4 similar, <10k",
                t.render().c_str());
  }
  std::printf("\nPaper-selected quotas: UDP 8, TCP 4. Note the small-quota\n"
              "throughput penalty (handler switching overhead), the paper's\n"
              "reason not to go below them.\n");
  write_csv(args, "fig4", csv);

  BenchReport report = make_report(args, "fig4");
  const char* keys[] = {"udp256", "udp1024", "tcp1024"};
  for (size_t c = 0; c < 3; ++c) {
    for (size_t q = 0; q < quotas.size(); ++q) {
      const StreamResult& r = results[c * quotas.size() + q];
      const std::string cell =
          std::string(keys[c]) + ".q" +
          (quotas[q] == 0 ? std::string("stock") : std::to_string(quotas[q]));
      report.add(cell + ".io_exits_per_sec", r.exits.io_instruction);
      report.add(cell + ".packets_per_sec", r.packets_per_sec);
    }
  }
  write_bench_report(args, report);

  if (!export_artifacts(args, results[static_cast<size_t>(observed)])) {
    return 1;
  }
  return 0;
}
