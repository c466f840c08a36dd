// Quickstart: build the paper's testbed, run one netperf TCP send under
// all four configurations, and print the exit breakdown + throughput.
//
//   $ ./quickstart [--fast]
#include <cstdio>

#include "base/strings.h"
#include "base/table.h"
#include "harness/experiments.h"
#include "example_args.h"

int main(int argc, char** argv) {
  const bool fast = es2::example::fast_only(argc, argv);

  es2::Table table({"Config", "IRQ deliv/s", "IRQ compl/s", "I/O req/s",
                    "Others/s", "TIG %", "Throughput Mb/s"});

  for (int i = 0; i < 4; ++i) {
    const es2::Es2Config cfg = es2::Es2Config::all4()[i];
    es2::StreamOptions opts;
    opts.config = cfg;
    opts.proto = es2::Proto::kTcp;
    opts.msg_size = 1024;
    opts.vm_sends = true;
    if (fast) {
      opts.warmup = es2::msec(50);
      opts.measure = es2::msec(200);
    }
    const es2::StreamResult r = es2::run_stream(opts);
    table.add_row({cfg.name(),
                   es2::with_commas(static_cast<std::int64_t>(
                       r.exits.interrupt_delivery)),
                   es2::with_commas(static_cast<std::int64_t>(
                       r.exits.interrupt_completion)),
                   es2::with_commas(
                       static_cast<std::int64_t>(r.exits.io_instruction)),
                   es2::with_commas(static_cast<std::int64_t>(r.exits.others)),
                   es2::fixed(r.exits.tig_percent, 1),
                   es2::fixed(r.throughput_mbps, 0)});
  }

  std::printf("ES2 quickstart — netperf TCP_STREAM send, 1024B messages\n");
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nExpected shape (paper): PI removes the interrupt exits, PI+H\n"
      "removes most I/O-instruction exits, and TIG climbs above 96%%.\n");
  return 0;
}
