// bench_blame — gated critical-path latency budgets for the fig5 stacks.
//
// Runs the paper's canonical exit-less delivery path (recv TCP 1024B)
// under Baseline / PI / PI+H with event-path tracing armed, decomposes
// every kick→EOI journey into per-component blame, and reduces each
// config to a latency budget: the fraction of total journey time each
// component owns, plus end-to-end p50/p99. The fractions are the gated
// metrics — a regression that moves time *between* components (say, from
// backend service into suppression wait) trips this gate even when the
// end-to-end mean barely moves.
//
// The per-journey partition is exact by construction (cut differences
// over [origin, eoi]), and this bench re-asserts it: the summed
// component nanoseconds must equal the summed journey totals, exactly.
// A violation exits nonzero regardless of the report gate.
#include <cmath>
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Blame", "Per-component latency budgets, recv TCP 1024B");

  struct Stack {
    const char* label;
    const char* key;
  };
  const Stack stacks[] = {
      {"Baseline", "baseline"}, {"PI", "pi"}, {"PI+H", "pi_h"}};

  std::vector<StreamResult> results(3);
  std::vector<std::function<void()>> tasks;
  for (int s = 0; s < 3; ++s) {
    tasks.push_back([&, s] {
      StreamOptions o;
      o.config = s == 0 ? Es2Config::baseline()
                        : (s == 1 ? Es2Config::pi()
                                  : Es2Config::pi_h(HybridIoHandling::kQuotaTcp));
      o.proto = Proto::kTcp;
      o.msg_size = 1024;
      o.vm_sends = false;
      o.seed = args.seed;
      o.warmup = args.fast ? msec(100) : msec(250);
      o.measure = args.fast ? msec(250) : msec(800);
      o.trace.enabled = true;
      o.trace.capacity = std::size_t{1} << 18;
      if (s == 2) observe_request(args, o);
      results[static_cast<size_t>(s)] = run_stream(o);
    });
  }
  ParallelRunner().run(std::move(tasks));

  BenchReport report = make_report(args, "blame");
  CsvWriter csv({"config", "component", "kind", "ns", "fraction", "p50_ns",
                 "p99_ns"});
  bool sum_ok = true;

  for (int s = 0; s < 3; ++s) {
    const StreamResult& r = results[static_cast<size_t>(s)];
    const BlameBreakdown& blame = r.trace->blame;
    const BlameSummary summary = blame_summary(blame);
    std::printf("\n-- %s\n%s", stacks[s].label,
                render_blame_markdown(summary).c_str());

    const std::string cell = stacks[s].key;
    report.add(cell + ".journeys", static_cast<double>(blame.journeys));
    report.add(cell + ".attributed", static_cast<double>(blame.complete));
    // PI+H attributes almost no journeys: quota-based hybrid handling
    // suppresses virtually every completion interrupt (the guest polls
    // instead), so few kick→MSI→EOI journeys exist to decompose. That *is*
    // the result; its fractions are still same-seed exact, so they gate.
    if (blame.complete == 0) continue;

    // The exactness check behind the gate: blame is a partition of the
    // journey interval, so the component sum must equal the journey-total
    // sum to the nanosecond (fractions then sum to 1 within fp rounding).
    std::int64_t component_sum = 0;
    for (const BlameSummary::Component& c : summary.components) {
      component_sum += c.ns;
    }
    if (component_sum != blame.total_ns) {
      std::printf("BLAME SUM VIOLATION (%s): components %lld != total %lld\n",
                  stacks[s].label, static_cast<long long>(component_sum),
                  static_cast<long long>(blame.total_ns));
      sum_ok = false;
    }

    for (const BlameSummary::Component& c : summary.components) {
      csv.add_row({cell, c.name, c.wait ? "wait" : "service",
                   format("%lld", static_cast<long long>(c.ns)),
                   format("%.6f", c.fraction),
                   format("%lld", static_cast<long long>(c.p50)),
                   format("%lld", static_cast<long long>(c.p99))});
      // Gate the budget itself. Fractions are ratios of two deterministic
      // sums, so same-seed runs reproduce them exactly (and Release and
      // Debug agree): any model drift is a deliberate re-baseline.
      report.add(cell + ".frac." + c.name, c.fraction);
    }
    report.add(cell + ".e2e_p99_ns",
               static_cast<double>(summary.end_to_end_p99));
  }

  write_csv(args, "blame", csv);
  write_bench_report(args, report);

  const StreamResult& profiled = results[2];
  if (!export_artifacts(args, profiled)) return 1;
  return sum_ok ? 0 : 1;
}
