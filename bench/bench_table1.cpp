// Table I — breakdown of VM exit causes, TCP sending (Baseline vs PI).
//
// Paper reference (exits/s): Baseline: delivery 20,258 / completion 38,388
// / I/O request 70,082 / others 2,112 (total 130,840, 44.8% + 53.6%).
// PI: 0 / 0 / 85,018 / 964.
#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Table I", "VM exit causes, netperf TCP send, 1-vCPU VM");

  StreamOptions base_opts;
  base_opts.proto = Proto::kTcp;
  base_opts.msg_size = 1024;
  base_opts.vm_sends = true;
  base_opts.seed = args.seed;
  if (args.fast) {
    base_opts.warmup = msec(100);
    base_opts.measure = msec(300);
  } else {
    base_opts.warmup = msec(300);
    base_opts.measure = sec(1);
  }

  // Cell 0 is Baseline, cell 1 PI. --observe watches the Baseline cell —
  // the exit-heavy path the table dissects.
  StreamResult results[2];
  constexpr int kObserved = 0;
  parallel_for(2, [&](int i) {
    StreamOptions o = base_opts;
    o.config = i == 0 ? Es2Config::baseline() : Es2Config::pi();
    if (i == kObserved) observe_request(args, o);
    results[i] = run_stream(o);
  });

  const StreamResult& base = results[0];
  const StreamResult& pi = results[1];
  const double btotal = base.exits.total;

  Table t({"VM Exit Causes", "Interrupt Delivery", "Interrupt Completion",
           "Guest's I/O Request", "Others"});
  t.add_row({"Paper Baseline (%)", "15.5%", "29.3%", "53.6%", "1.6%"});
  t.add_row({"Ours  Baseline (%)",
             fixed(100 * base.exits.interrupt_delivery / btotal, 1) + "%",
             fixed(100 * base.exits.interrupt_completion / btotal, 1) + "%",
             fixed(100 * base.exits.io_instruction / btotal, 1) + "%",
             fixed(100 * base.exits.others / btotal, 1) + "%"});
  t.add_rule();
  t.add_row({"Paper Baseline (Exits/s)", "20,258", "38,388", "70,082", "2,112"});
  t.add_row({"Ours  Baseline (Exits/s)", count_str(base.exits.interrupt_delivery),
             count_str(base.exits.interrupt_completion),
             count_str(base.exits.io_instruction), count_str(base.exits.others)});
  t.add_rule();
  t.add_row({"Paper PI (Exits/s)", "0", "0", "85,018", "964"});
  t.add_row({"Ours  PI (Exits/s)", count_str(pi.exits.interrupt_delivery),
             count_str(pi.exits.interrupt_completion),
             count_str(pi.exits.io_instruction), count_str(pi.exits.others)});
  std::printf("%s", t.render().c_str());
  std::printf("Total baseline exits/s: paper 130,840, ours %s (TIG %.1f%%)\n",
              count_str(btotal).c_str(), base.exits.tig_percent);
  std::printf("PI raises guest I/O request exits (paper +21%%, ours %+.0f%%)\n",
              100.0 * (pi.exits.io_instruction / base.exits.io_instruction - 1));

  CsvWriter csv({"config", "delivery", "completion", "io_request", "others",
                 "total", "tig_percent"});
  auto row = [&](const char* name, const StreamResult& r) {
    csv.add_row({name, fixed(r.exits.interrupt_delivery, 0),
                 fixed(r.exits.interrupt_completion, 0),
                 fixed(r.exits.io_instruction, 0), fixed(r.exits.others, 0),
                 fixed(r.exits.total, 0), fixed(r.exits.tig_percent, 2)});
  };
  row("baseline", base);
  row("pi", pi);
  write_csv(args, "table1", csv);

  BenchReport report = make_report(args, "table1");
  auto add_config = [&report](const char* name, const StreamResult& r) {
    const std::string p = std::string(name) + ".";
    report.add(p + "exits.delivery", r.exits.interrupt_delivery);
    report.add(p + "exits.completion", r.exits.interrupt_completion);
    report.add(p + "exits.io_request", r.exits.io_instruction);
    report.add(p + "exits.total", r.exits.total);
    report.add(p + "tig_percent", r.exits.tig_percent);
    report.add(p + "throughput_mbps", r.throughput_mbps);
  };
  add_config("baseline", base);
  add_config("pi", pi);
  write_bench_report(args, report);

  if (!export_artifacts(args, results[kObserved])) return 1;
  return 0;
}
