// Fig. 5 — breakdown of VM exit causes + time-in-guest for a VM sending or
// receiving 1024-byte TCP/UDP streams under Baseline / PI / PI+H.
//
// Paper reference TIG: send TCP 70% -> (PI) -> 97.5% (PI+H);
// send UDP 68.5% -> 99.7%; recv TCP 91.1% -> 94.8% -> ~95%;
// recv UDP: PI and PI+H above 99%.
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Fig. 5", "Exit breakdown + TIG, send/recv TCP/UDP 1024B");

  struct Case {
    const char* label;
    Proto proto;
    bool vm_sends;
    const char* paper;
  };
  const Case cases[] = {
      {"send TCP", Proto::kTcp, true, "TIG 70% -> 97.5%; EOIs dominate APIC"},
      {"send UDP", Proto::kUdp, true, "TIG 68.5% -> 99.7%; io exits dominate"},
      {"recv TCP", Proto::kTcp, false,
       "TIG 91.1% -> 94.8%; residual io = ACK sends"},
      {"recv UDP", Proto::kUdp, false, "no io exits; PI/PI+H TIG > 99%"},
  };

  CsvWriter csv({"case", "config", "delivery", "completion", "io", "others",
                 "total", "tig_percent"});

  std::vector<StreamResult> results(12);
  std::vector<std::function<void()>> tasks;
  for (size_t c = 0; c < 4; ++c) {
    for (int s = 0; s < 3; ++s) {
      tasks.push_back([&, c, s] {
        StreamOptions o;
        o.config = s == 0 ? Es2Config::baseline()
                          : (s == 1 ? Es2Config::pi()
                                    : Es2Config::pi_h(
                                          cases[c].proto == Proto::kUdp
                                              ? HybridIoHandling::kQuotaUdp
                                              : HybridIoHandling::kQuotaTcp));
        o.proto = cases[c].proto;
        o.msg_size = 1024;
        o.vm_sends = cases[c].vm_sends;
        o.seed = args.seed;
        o.warmup = args.fast ? msec(100) : msec(250);
        o.measure = args.fast ? msec(250) : msec(800);
        // Every cell runs traced so the per-stage blame columns below
        // cover the whole grid (tracing is passive; the exit/TIG numbers
        // and the gated report are unchanged).
        o.trace.enabled = true;
        o.trace.capacity = std::size_t{1} << 18;
        // --trace/--profile/--hash-epochs export the recv-TCP / PI cell,
        // the paper's canonical exit-less delivery path.
        if (c * 3 + s == 7) {
          o.profile = profile_request(args);
          o.snapshot = hash_request(args);
        }
        results[c * 3 + s] = run_stream(o);
      });
    }
  }
  ParallelRunner().run(std::move(tasks));

  const char* config_names[] = {"Baseline", "PI", "PI+H"};
  for (size_t c = 0; c < 4; ++c) {
    Table t({"Config", "Ext.Int/s", "APIC/s", "I/O Instr/s", "Others/s",
             "Total/s", "TIG %"});
    for (int s = 0; s < 3; ++s) {
      const StreamResult& r = results[c * 3 + s];
      t.add_row({config_names[s], count_str(r.exits.interrupt_delivery),
                 count_str(r.exits.interrupt_completion),
                 count_str(r.exits.io_instruction), count_str(r.exits.others),
                 count_str(r.exits.total), fixed(r.exits.tig_percent, 1)});
      csv.add_row({cases[c].label, config_names[s],
                   fixed(r.exits.interrupt_delivery, 0),
                   fixed(r.exits.interrupt_completion, 0),
                   fixed(r.exits.io_instruction, 0), fixed(r.exits.others, 0),
                   fixed(r.exits.total, 0), fixed(r.exits.tig_percent, 2)});
    }
    std::printf("\n-- %s 1024B   (paper: %s)\n%s", cases[c].label,
                cases[c].paper, t.render().c_str());
  }
  write_csv(args, "fig5", csv);

  // Per-stage blame columns: the share of total journey time each
  // event-path component owns, per cell. The budget gate proper lives in
  // bench_blame.
  CsvWriter blame_csv(
      {"case", "config", "component", "kind", "ns", "fraction"});
  for (size_t c = 0; c < 4; ++c) {
    Table bt({"Config", "notify%", "sched%", "queue%", "backend%", "suppr%",
              "vcpu%", "msi%", "guest%", "p99 us"});
    for (int s = 0; s < 3; ++s) {
      const StreamResult& r = results[c * 3 + s];
      const BlameSummary summary = blame_summary(blame_of(r.trace.get()));
      std::vector<std::string> row{config_names[s]};
      for (const BlameSummary::Component& comp : summary.components) {
        row.push_back(fixed(comp.fraction * 100.0, 1));
        blame_csv.add_row({cases[c].label, config_names[s], comp.name,
                           comp.wait ? "wait" : "service",
                           format("%lld", static_cast<long long>(comp.ns)),
                           format("%.6f", comp.fraction)});
      }
      row.push_back(
          fixed(static_cast<double>(summary.end_to_end_p99) / 1000.0, 1));
      bt.add_row(row);
    }
    std::printf("\n-- %s 1024B blame shares\n%s", cases[c].label,
                bt.render().c_str());
  }
  write_csv(args, "fig5_blame", blame_csv);

  BenchReport report = make_report(args, "fig5");
  const char* case_keys[] = {"send_tcp", "send_udp", "recv_tcp", "recv_udp"};
  const char* config_keys[] = {"baseline", "pi", "pi_h"};
  for (size_t c = 0; c < 4; ++c) {
    for (int s = 0; s < 3; ++s) {
      const StreamResult& r = results[c * 3 + s];
      const std::string cell =
          std::string(case_keys[c]) + "." + config_keys[s];
      report.add(cell + ".exits_total", r.exits.total);
      report.add(cell + ".tig_percent", r.exits.tig_percent, 0.1);
    }
  }
  write_bench_report(args, report);

  const StreamResult& traced = results[7];
  if (!export_trace(args, traced.trace.get(), traced.stages,
                    traced.profile.get())) {
    return 1;
  }
  if (!export_profile(args, traced.profile.get(), traced.trace.get())) {
    return 1;
  }
  if (!export_hash_log(args, traced.hashes.get())) return 1;
  return 0;
}
