// Recovery bench — MTTR per lifecycle-fault mode, per stack.
//
// Not a paper figure: this bench certifies the device-lifecycle recovery
// ladder. Each cell runs the peer->VM netperf stream with exactly one
// lifecycle fault mode injected on a deterministic period (ring
// corruption, torn avail-idx, wedged handler, crashed worker), the guest
// recovery ladder armed, the invariant auditor on, and the scenario
// watchdog supervising. The gated rows are the recovery ledger: injected
// and recovered counts and MTTR p50/p99 must match the baseline exactly
// (one silently lost fault instance is a regression, and recovery time is
// sim time, quantized by the guest timer and the selfcheck cadence).
//
// `--soak` instead runs the long-horizon proof: all four fault modes at
// once for 10 simulated seconds, auditor + epoch state-hash log on. The
// run passes iff every injected fault either recovered in bounded sim
// time or produced a structured WATCHDOG report — zero silent wedges —
// and exits non-zero otherwise, printing each open instance's report
// line with its trace correlation id.
//
// Usage: bench_recovery [--fast] [--seed=N] [--out=DIR] [--soak]
#include <string>
#include <vector>

#include "bench_common.h"

using namespace es2;
using namespace es2::bench;

namespace {

struct Stack {
  const char* label;
  const char* key;
  Es2Config config;
};

/// One lifecycle mode armed per cell, on a period chosen so a fast cell
/// still sees several instances. The periods are mutually prime-ish so
/// the soak (all armed) interleaves modes instead of phase-locking them.
FaultPlan plan_for(LifecycleFault mode) {
  FaultPlan f;
  switch (mode) {
    case LifecycleFault::kDescCorrupt: f.desc_corrupt_period = msec(97); break;
    case LifecycleFault::kAvailTear: f.avail_tear_period = msec(103); break;
    case LifecycleFault::kHandlerWedge: f.handler_wedge_period = msec(89); break;
    case LifecycleFault::kWorkerCrash: f.worker_crash_period = msec(113); break;
    // Livelock is driven by offered load (bench_storm), not the injector.
    case LifecycleFault::kRxLivelock: break;
    case LifecycleFault::kCount: break;
  }
  return f;
}

FaultPlan plan_all_modes() {
  FaultPlan f;
  f.desc_corrupt_period = msec(97);
  f.avail_tear_period = msec(103);
  f.handler_wedge_period = msec(89);
  f.worker_crash_period = msec(113);
  return f;
}

RecoveryStreamOptions cell_options(const BenchArgs& args,
                                   const Es2Config& config) {
  RecoveryStreamOptions o;
  o.chaos.stream.config = config;
  // Peer->VM TCP: faults on either ring stall end-to-end progress, so
  // every recovery is visible as goodput coming back.
  o.chaos.stream.vm_sends = false;
  o.chaos.stream.seed = args.seed;
  o.chaos.stream.warmup = args.fast ? msec(150) : msec(300);
  o.chaos.stream.measure = args.fast ? msec(600) : msec(1500);
  o.chaos.audit = true;
  // Quarantine windows stretch to the guest-timer cadence; keep the
  // no-progress verdict well clear of a single recovery cycle.
  o.chaos.budget.progress_window = msec(100);
  o.chaos.budget.stall_windows = 12;
  return o;
}

int run_soak(const BenchArgs& args) {
  print_header("Recovery (soak)",
               "all lifecycle fault modes, bounded-MTTR, zero silent wedges");
  RecoveryStreamOptions o = cell_options(args, Es2Config::pi_h_r());
  o.chaos.faults = plan_all_modes();
  o.chaos.stream.warmup = msec(200);
  o.chaos.stream.measure = args.fast ? sec(2) : sec(10);
  o.chaos.budget.max_sim_time = o.chaos.stream.measure + sec(5);
  o.chaos.stream.snapshot.hash_epochs = true;  // the state-hash log leg
  observe_request(args, o.chaos.stream);
  const RecoveryStreamResult r = run_recovery_stream(o, "recovery-soak");

  std::printf("%s\n", r.chaos.report.to_line().c_str());
  std::printf(
      "injected %lld, recovered %lld, unrecovered %lld; mttr p50 %.1f us, "
      "p99 %.1f us\n",
      static_cast<long long>(r.injected), static_cast<long long>(r.recovered),
      static_cast<long long>(r.unrecovered), r.mttr_p50 / 1e3,
      r.mttr_p99 / 1e3);
  for (const RecoveryModeStats& m : r.modes) {
    std::printf("  %-13s injected %lld recovered %lld mttr p50/p99 %.1f/%.1f us\n",
                lifecycle_fault_name(m.mode),
                static_cast<long long>(m.injected),
                static_cast<long long>(m.recovered), m.mttr_p50 / 1e3,
                m.mttr_p99 / 1e3);
  }
  std::printf(
      "rungs: watchdog %lld, vhost re-poll %lld, queue reset %lld, device "
      "reset %lld; worker crashes/restarts %lld/%lld\n",
      static_cast<long long>(r.rung_watchdog),
      static_cast<long long>(r.rung_vhost_repoll),
      static_cast<long long>(r.rung_queue_reset),
      static_cast<long long>(r.rung_device_reset),
      static_cast<long long>(r.worker_crashes),
      static_cast<long long>(r.worker_restarts));
  if (const HashSeries* h = r.chaos.stream.hashes.get()) {
    std::printf("[state-hash log: %zu epochs x %zu components]\n",
                h->entries.size(), h->component_names.size());
  }
  // The soak always hashes; --observe arms the other observers too and
  // exports everything, hashes.json included (tools/divergence_bisect
  // input for recovery-path nondeterminism hunts).
  if (!export_artifacts(args, r.chaos.stream)) return 1;
  std::printf("audit: %llu sweeps, %lld violations\n",
              static_cast<unsigned long long>(r.chaos.audit_sweeps),
              static_cast<long long>(r.chaos.audit_violations));
  for (const WedgeReport& wr : r.wedges) {
    std::printf("%s\n", wr.detail.c_str());
  }
  if (r.injected == 0) {
    std::printf("ERROR: soak injected nothing\n");
    return 1;
  }
  if (!r.clean() || r.chaos.audit_violations != 0) {
    std::printf("SOAK FAILED: %lld unrecovered instance(s), %lld audit "
                "violation(s)\n",
                static_cast<long long>(r.unrecovered),
                static_cast<long long>(r.chaos.audit_violations));
    return 2;
  }
  std::printf("soak ok: every injected fault recovered, zero silent wedges\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, {"--soak"});
  if (args.has("--soak")) return run_soak(args);

  print_header("Recovery", "MTTR per lifecycle fault mode, per stack");

  const std::vector<Stack> stacks = {
      {"Baseline", "baseline", Es2Config::baseline()},
      {"PI+H+R", "pi_h_r", Es2Config::pi_h_r()},
  };
  const std::vector<LifecycleFault> modes = {
      LifecycleFault::kDescCorrupt, LifecycleFault::kAvailTear,
      LifecycleFault::kHandlerWedge, LifecycleFault::kWorkerCrash};

  // Cell i is mode i % |modes| on stack i / |modes|. --observe watches
  // the first cell.
  std::vector<RecoveryStreamResult> results(stacks.size() * modes.size());
  constexpr int kObserved = 0;
  parallel_for(static_cast<int>(results.size()), [&](int i) {
    const Stack& s = stacks[static_cast<size_t>(i) / modes.size()];
    const LifecycleFault mode = modes[static_cast<size_t>(i) % modes.size()];
    RecoveryStreamOptions o = cell_options(args, s.config);
    o.chaos.faults = plan_for(mode);
    if (i == kObserved) observe_request(args, o.chaos.stream);
    results[static_cast<size_t>(i)] = run_recovery_stream(
        o, format("%s/%s", s.label, lifecycle_fault_name(mode)));
  });

  CsvWriter csv({"stack", "mode", "status", "injected", "recovered",
                 "unrecovered", "mttr_p50_us", "mttr_p99_us", "queue_resets",
                 "device_resets", "ring_faults", "audit_violations"});
  Table t({"stack", "mode", "status", "inj", "rec", "unrec", "mttr p50 us",
           "mttr p99 us", "q-resets", "d-resets", "ring flt", "audit"});
  BenchReport report = make_report(args, "recovery");
  int rc = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const Stack& s = stacks[i / modes.size()];
    const LifecycleFault mode = modes[i % modes.size()];
    const RecoveryStreamResult& r = results[i];
    const std::string p50_us = format("%.1f", r.mttr_p50 / 1e3);
    const std::string p99_us = format("%.1f", r.mttr_p99 / 1e3);
    csv.add_row({s.label, lifecycle_fault_name(mode),
                 to_string(r.chaos.report.status), std::to_string(r.injected),
                 std::to_string(r.recovered), std::to_string(r.unrecovered),
                 p50_us, p99_us, std::to_string(r.queue_resets),
                 std::to_string(r.device_resets),
                 std::to_string(r.ring_faults_detected),
                 std::to_string(r.chaos.audit_violations)});
    t.add_row({s.label, lifecycle_fault_name(mode),
               to_string(r.chaos.report.status), with_commas(r.injected),
               with_commas(r.recovered), with_commas(r.unrecovered), p50_us,
               p99_us, with_commas(r.queue_resets),
               with_commas(r.device_resets),
               with_commas(r.ring_faults_detected),
               with_commas(r.chaos.audit_violations)});

    const std::string cell =
        std::string(s.key) + "." + lifecycle_fault_name(mode) + ".";
    // The ledger counts are hard gates: losing (or double-counting) a
    // fault instance is a correctness bug regardless of timing.
    report.add(cell + "injected", static_cast<double>(r.injected));
    report.add(cell + "recovered", static_cast<double>(r.recovered));
    report.add(cell + "unrecovered", static_cast<double>(r.unrecovered));
    report.add(cell + "ok", r.clean() ? 1.0 : 0.0);
    // MTTR is quantized by watchdog/selfcheck cadences but still a
    // same-seed deterministic output: gated exactly.
    report.add(cell + "mttr_p50_us", r.mttr_p50 / 1e3);
    report.add(cell + "mttr_p99_us", r.mttr_p99 / 1e3);

    for (const WedgeReport& wr : r.wedges) {
      std::printf("%s\n", wr.detail.c_str());
    }
    if (!r.clean()) rc = 3;
  }
  std::printf("%s", t.render().c_str());
  write_csv(args, "recovery", csv);
  write_bench_report(args, report);
  if (!export_artifacts(args, results[kObserved].chaos.stream)) return 1;
  if (rc != 0) std::printf("RECOVERY FAILED: see wedge reports above\n");
  return rc;
}
