// Engine microbenchmarks (google-benchmark): the substrate's hot paths —
// event queue, virtqueue operations, CFS scheduling, PI descriptor posts,
// redirection target selection, and whole-simulation throughput.
//
// The custom main collects each benchmark's per-iteration real time and
// writes BENCH_micro.json in the shared es2-bench-v1 schema. All micro
// numbers are wall-clock and therefore informational (never gated).
//
// Usage: bench_micro [--fast] [--seed=N] [--out=DIR] [--benchmark_* flags]
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apic/vapic.h"
#include "bench_common.h"
#include "cpu/cfs.h"
#include "es2/redirect.h"
#include "harness/experiments.h"
#include "sim/simulator.h"
#include "virtio/virtqueue.h"

namespace es2 {
namespace {

void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  Simulator sim;
  SimTime t = 0;
  for (auto _ : state) {
    sim.at(t + 10, [] {});
    sim.run_until(t + 10);
    t += 10;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleAndRun);

void BM_EventQueueCancel(benchmark::State& state) {
  Simulator sim;
  SimTime t = 0;
  for (auto _ : state) {
    EventHandle h = sim.at(t + 1000000, [] {});
    h.cancel();
    ++t;
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_EventQueueDeepHeap(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    for (int i = 0; i < depth; ++i) sim.at(i, [] {});
    state.ResumeTiming();
    sim.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueueDeepHeap)->Arg(1024)->Arg(16384);

void BM_VirtqueueAddPopUsed(benchmark::State& state) {
  Virtqueue vq("bench", 256);
  Packet proto_packet;
  proto_packet.wire_size = 1500;
  const PacketPtr pkt = make_packet(std::move(proto_packet));
  for (auto _ : state) {
    vq.add_avail(Virtqueue::Entry{pkt, 1500});
    benchmark::DoNotOptimize(vq.kick_needed());
    auto e = vq.pop_avail();
    vq.push_used(std::move(*e));
    benchmark::DoNotOptimize(vq.interrupt_needed());
    vq.pop_used();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VirtqueueAddPopUsed);

void BM_PiDescriptorPostSync(benchmark::State& state) {
  VApicPage vapic;
  for (auto _ : state) {
    vapic.pi().post(0x41);
    vapic.sync_pir();
    vapic.deliver();
    vapic.eoi();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PiDescriptorPostSync);

void BM_CfsScheduling(benchmark::State& state) {
  const int nthreads = static_cast<int>(state.range(0));
  Simulator sim;
  CfsScheduler sched(sim, 1);
  std::vector<std::unique_ptr<SimThread>> threads;
  for (int i = 0; i < nthreads; ++i) {
    auto t = std::make_unique<SimThread>(sim, "t");
    SimThread* tp = t.get();
    t->set_main([tp] { tp->exec(usec(50), [] {}); });
    sched.add(*t, 0);
    t->wake();
    threads.push_back(std::move(t));
  }
  SimTime t = 0;
  for (auto _ : state) {
    t += msec(10);
    sim.run_until(t);
  }
  state.counters["ctx_switches/s"] = benchmark::Counter(
      static_cast<double>(sched.context_switches()) / to_seconds(t));
}
BENCHMARK(BM_CfsScheduling)->Arg(2)->Arg(8)->Arg(32);

void BM_RedirectSelectTarget(benchmark::State& state) {
  Simulator sim(1);
  KvmHost host(sim, 8);
  InterruptRedirector redirector(host, RedirectPolicy::kPaper);
  Vm& vm = host.create_vm("vm", {0, 1, 2, 3},
                          InterruptVirtMode::kPostedInterrupt);
  redirector.track(vm);
  const MsiMessage msi{0x40, 0, DeliveryMode::kLowestPriority};
  for (auto _ : state) {
    benchmark::DoNotOptimize(redirector.select_target(vm, msi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RedirectSelectTarget);

/// Whole-stack simulation throughput: simulated-time per wall-time for the
/// micro TCP-send scenario.
void BM_FullStackSimulation(benchmark::State& state) {
  for (auto _ : state) {
    StreamOptions o;
    o.config = Es2Config::pi_h(4);
    o.proto = Proto::kTcp;
    o.msg_size = 1024;
    o.warmup = msec(20);
    o.measure = msec(80);
    benchmark::DoNotOptimize(run_stream(o));
  }
  state.counters["sim_ms/iter"] = 100;
}
BENCHMARK(BM_FullStackSimulation)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects (name, ns/iteration) pairs
/// for the BENCH_micro.json report.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred &&
          run.iterations > 0) {
        collected.emplace_back(run.benchmark_name(),
                               run.real_accumulated_time /
                                   static_cast<double>(run.iterations) * 1e9);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> collected;
};

}  // namespace
}  // namespace es2

int main(int argc, char** argv) {
  const es2::bench::BenchArgs args =
      es2::bench::parse_args(argc, argv, {"--benchmark_*"});
  // Benchmark's flag parser must not see our flags; hand it only its own
  // (plus a short min-time under --fast).
  std::vector<std::string> fwd_storage = {argv[0]};
  fwd_storage.insert(fwd_storage.end(), args.extra.begin(), args.extra.end());
  if (args.fast) fwd_storage.push_back("--benchmark_min_time=0.05");
  std::vector<char*> fwd;
  for (std::string& s : fwd_storage) fwd.push_back(s.data());
  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());

  es2::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  es2::BenchReport report = es2::bench::make_report(args, "micro");
  for (const auto& [name, ns] : reporter.collected) {
    std::string key = name;
    for (char& ch : key) {
      if (ch == '/') ch = '_';
    }
    report.add_info(key + ".ns_per_iter", ns);
  }
  es2::bench::write_bench_report(args, report);
  if (!es2::bench::export_standalone(args)) return 1;
  return 0;
}
