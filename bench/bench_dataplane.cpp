// Dataplane bench: vhost service discipline x ring layout x offered load.
//
// Not a paper figure: this bench characterizes the packed-ring/multi-queue/
// busy-poll dataplane. It sweeps the vhost worker's three service
// disciplines (hybrid kick-driven notify, exit-less always-poll, adaptive
// poll-budget) against both ring layouts (split, packed) at three TCP
// message sizes, all on the full ES2 stack (PI+H+R), and reports:
//
//  * gated: packets/s and guest kicks/s per cell (deterministic given
//    --seed, so regressions in the steering/suppression/poll path show up
//    as gate failures);
//  * gated invariants: split and packed must produce bit-identical stream
//    scalars per (mode, load) cell, always-poll must run exit-less
//    (kicks/s == 0), and adaptive must kick strictly less than notify;
//  * gated: the always-poll:hybrid packets/s ratio per load — the
//    crossover EXPERIMENTS.md discusses.
//
// Usage: bench_dataplane [--fast] [--seed=N] [--out=DIR]
#include <string>
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

namespace {

struct ModeCase {
  const char* name;  // metric-key segment
  PollMode mode;
};

struct LoadCase {
  const char* name;
  Bytes msg_size;
};

/// True iff the observable stream scalars match exactly — the same
/// layout-invariance contract ring_conformance_test enforces.
bool scalars_identical(const StreamResult& a, const StreamResult& b) {
  return a.throughput_mbps == b.throughput_mbps &&
         a.packets_per_sec == b.packets_per_sec &&
         a.kicks_per_sec == b.kicks_per_sec &&
         a.guest_irqs_per_sec == b.guest_irqs_per_sec &&
         a.rx_dropped == b.rx_dropped && a.link_dropped == b.link_dropped &&
         a.exits.total == b.exits.total;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Dataplane", "poll mode x ring layout x load sweep");

  const ModeCase modes[] = {
      {"hybrid", PollMode::kNotify},
      {"always_poll", PollMode::kAlwaysPoll},
      {"adaptive", PollMode::kAdaptive},
  };
  const LoadCase loads[] = {
      {"s256", 256},
      {"s1024", 1024},
      {"s4096", 4096},
  };
  const RingLayout layouts[] = {RingLayout::kSplit, RingLayout::kPacked};
  const char* layout_names[] = {"split", "packed"};

  constexpr int kModes = 3, kLoads = 3, kLayouts = 2;
  constexpr int kCells = kModes * kLoads * kLayouts;
  std::vector<StreamResult> results(kCells);
  parallel_for(kCells, [&](int i) {
    const int m = i / (kLoads * kLayouts);
    const int l = (i / kLayouts) % kLoads;
    const int y = i % kLayouts;
    StreamOptions o;
    o.config = Es2Config::pi_h_r();
    o.msg_size = loads[l].msg_size;
    o.num_queue_pairs = 2;
    o.ring_layout = layouts[y];
    o.poll_mode = modes[m].mode;
    o.seed = args.seed;
    o.warmup = args.fast ? msec(50) : msec(200);
    o.measure = args.fast ? msec(200) : msec(600);
    results[i] = run_stream(o);
  });

  const auto cell = [&](int m, int l, int y) -> const StreamResult& {
    return results[m * kLoads * kLayouts + l * kLayouts + y];
  };

  BenchReport report = make_report(args, "dataplane");
  Table t({"mode", "load", "layout", "packets/s", "kicks/s", "irqs/s",
           "Mbit/s"});
  CsvWriter csv({"mode", "load", "layout", "metric", "value"});
  bool invariant_ok = true;
  bool exitless_ok = true;
  bool adaptive_ok = true;
  for (int m = 0; m < kModes; ++m) {
    for (int l = 0; l < kLoads; ++l) {
      for (int y = 0; y < kLayouts; ++y) {
        const StreamResult& r = cell(m, l, y);
        const std::string key = std::string(loads[l].name) + "." +
                                layout_names[y] + "." + modes[m].name;
        // Same-seed deterministic simulation rates: gated exactly.
        report.add(key + ".packets_per_sec", r.packets_per_sec);
        report.add(key + ".kicks_per_sec", r.kicks_per_sec);
        t.add_row({modes[m].name, loads[l].name, layout_names[y],
                   count_str(r.packets_per_sec), count_str(r.kicks_per_sec),
                   count_str(r.guest_irqs_per_sec),
                   fixed(r.throughput_mbps, 1)});
        csv.add_row({modes[m].name, loads[l].name, layout_names[y],
                     "packets_per_sec", fixed(r.packets_per_sec, 0)});
        csv.add_row({modes[m].name, loads[l].name, layout_names[y],
                     "kicks_per_sec", fixed(r.kicks_per_sec, 0)});
        if (modes[m].mode == PollMode::kAlwaysPoll && r.kicks_per_sec != 0.0) {
          exitless_ok = false;
        }
      }
      if (!scalars_identical(cell(m, l, 0), cell(m, l, 1))) {
        invariant_ok = false;
        std::printf("[layout divergence: mode=%s load=%s]\n", modes[m].name,
                    loads[l].name);
      }
    }
  }
  std::printf("%s", t.render().c_str());

  // Adaptive must sit between always-poll (0) and notify on kick rate, per
  // layout and load — strictly below wherever notify mode kicks at all. (At
  // the largest message size the ES2 hybrid stack's in-guest polling already
  // absorbs every kick, so both modes legitimately read zero there.)
  for (int l = 0; l < kLoads; ++l) {
    for (int y = 0; y < kLayouts; ++y) {
      const double notify_kicks = cell(0, l, y).kicks_per_sec;
      const double adaptive_kicks = cell(2, l, y).kicks_per_sec;
      if (notify_kicks > 0.0 ? !(adaptive_kicks < notify_kicks)
                             : adaptive_kicks != 0.0) {
        adaptive_ok = false;
      }
    }
  }
  report.add("invariant.layout_identical", invariant_ok ? 1.0 : 0.0);
  report.add("invariant.always_poll_exitless", exitless_ok ? 1.0 : 0.0);
  report.add("invariant.adaptive_kicks_below_notify", adaptive_ok ? 1.0 : 0.0);
  std::printf(
      "invariants: layout_identical=%d always_poll_exitless=%d "
      "adaptive_kicks_below_notify=%d\n",
      invariant_ok, exitless_ok, adaptive_ok);

  // The crossover story: what does always-poll buy over the kick-driven
  // hybrid path as the load rises? A ratio of two gated rates, so gated too.
  for (int l = 0; l < kLoads; ++l) {
    const double hybrid_pps = cell(0, l, 0).packets_per_sec;
    const double poll_pps = cell(1, l, 0).packets_per_sec;
    const double ratio = hybrid_pps > 0 ? poll_pps / hybrid_pps : 0.0;
    report.add(std::string("crossover.") + loads[l].name +
                   ".always_poll_vs_hybrid_pps_ratio",
               ratio);
    std::printf("crossover %s: always-poll/hybrid packets/s = %.3f\n",
                loads[l].name, ratio);
  }
  write_csv(args, "dataplane", csv);
  write_bench_report(args, report);
  if (!export_standalone(args)) return 1;
  return (invariant_ok && exitless_ok && adaptive_ok) ? 0 : 1;
}
