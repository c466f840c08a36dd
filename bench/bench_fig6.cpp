// Fig. 6 — Netperf TCP throughput vs message size, sending and receiving,
// under the four stacks, in the oversubscribed macro testbed (4 VMs x 4
// vCPUs time-sharing 4 cores).
//
// Paper shape: send — PI +13-19%, PI+H up to +40% more, PI+H+R another
// +15% (~2x total). recv — PI ~+17%; redirection up to +50% over PI+H.
// Known model deviation: in our simulator the macro baseline already
// suppresses most kicks (event-idx under concurrent senders), so the
// send-side PI/PI+H spread is compressed; see EXPERIMENTS.md.
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Fig. 6", "Macro netperf TCP throughput vs message size");

  const std::vector<Bytes> sizes =
      args.fast ? std::vector<Bytes>{1024}
                : std::vector<Bytes>{64, 256, 1024, 4096, 16384};

  CsvWriter csv({"direction", "msg_size", "config", "throughput_mbps",
                 "packets_per_sec", "io_exits_per_sec", "tig_percent"});

  BenchReport report = make_report(args, "fig6");
  const char* config_keys[] = {"baseline", "pi", "pi_h", "pi_h_r"};

  // Cell s * 4 + c is sizes[s] on config c. --observe watches the
  // receiving PI+H+R cell at the largest size (the last cell) — the full
  // redirected event path under oversubscription.
  const int observed = static_cast<int>(sizes.size() * 4) - 1;
  for (const bool vm_sends : {true, false}) {
    std::vector<StreamResult> results(sizes.size() * 4);
    parallel_for(static_cast<int>(results.size()), [&](int i) {
      StreamOptions o;
      o.config = Es2Config::all4()[i % 4];
      o.proto = Proto::kTcp;
      o.msg_size = sizes[static_cast<size_t>(i / 4)];
      o.vm_sends = vm_sends;
      o.macro = true;
      o.threads = 4;
      o.seed = args.seed;
      o.warmup = args.fast ? msec(200) : msec(400);
      o.measure = args.fast ? msec(400) : sec(1);
      if (!vm_sends && i == observed) observe_request(args, o);
      results[static_cast<size_t>(i)] = run_stream(o);
    });

    std::printf("\n-- %s TCP stream (Mb/s)\n", vm_sends ? "sending" : "receiving");
    Table t({"msg size", "Baseline", "PI", "PI+H", "PI+H+R"});
    for (size_t s = 0; s < sizes.size(); ++s) {
      std::vector<std::string> row = {std::to_string(sizes[s]) + "B"};
      for (int c = 0; c < 4; ++c) {
        const StreamResult& r = results[s * 4 + c];
        row.push_back(fixed(r.throughput_mbps, 0));
        csv.add_row({vm_sends ? "send" : "recv", std::to_string(sizes[s]),
                     Es2Config::all4()[c].name(),
                     fixed(r.throughput_mbps, 1),
                     fixed(r.packets_per_sec, 0),
                     fixed(r.exits.io_instruction, 0),
                     fixed(r.exits.tig_percent, 2)});
      }
      t.add_row(std::move(row));
    }
    std::printf("%s", t.render().c_str());
    const std::string dir = vm_sends ? "send" : "recv";
    for (int c = 0; c < 4; ++c) {
      for (size_t s = 0; s < sizes.size(); ++s) {
        const StreamResult& r = results[s * 4 + c];
        report.add(dir + "." + config_keys[c] + "." +
                       std::to_string(sizes[s]) + "b.throughput_mbps",
                   r.throughput_mbps);
      }
    }
    if (!vm_sends &&
        !export_artifacts(args, results[static_cast<size_t>(observed)])) {
      return 1;
    }
  }
  std::printf(
      "\nPaper shape: send PI+13-19%%, +H -> +40%%, +R -> +15%% (~2x);\n"
      "recv: +R up to +50%% over PI+H.\n");
  write_csv(args, "fig6", csv);
  write_bench_report(args, report);
  return 0;
}
