// Trace-based event-path regression tests.
//
// These lock down the event path itself, not just aggregate counters:
//   * determinism — same seed, same workload => identical trace records;
//   * passivity — tracing a run must not change any of its metrics;
//   * the paper's core claim in trace form — posted interrupts remove
//     interrupt-delivery and EOI-completion VM exits from the path;
//   * chaos differential — a dropped-MSI plan shows the guest watchdog's
//     missed-interrupt NAPI poll recovering, after the drop.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/json.h"
#include "harness/experiments.h"
#include "trace/export.h"
#include "vm/exit.h"

namespace es2 {
namespace {

StreamOptions traced_stream(const Es2Config& config, bool vm_sends) {
  StreamOptions o;
  o.config = config;
  o.proto = Proto::kTcp;
  o.msg_size = 1024;
  o.vm_sends = vm_sends;
  o.warmup = msec(100);
  o.measure = msec(250);
  o.trace.enabled = true;
  o.trace.capacity = std::size_t{1} << 18;
  return o;
}

std::int64_t count_kind(const std::vector<TraceRecord>& records,
                        TraceKind kind) {
  return std::count_if(records.begin(), records.end(),
                       [kind](const TraceRecord& r) { return r.kind == kind; });
}

std::int64_t count_exits(const std::vector<TraceRecord>& records,
                         ExitReason reason) {
  const auto arg = static_cast<std::uint32_t>(reason);
  return std::count_if(records.begin(), records.end(),
                       [arg](const TraceRecord& r) {
                         return r.kind == TraceKind::kVmExit && r.arg == arg;
                       });
}

TEST(TracePath, SameSeedTracesAreByteIdentical) {
  const StreamOptions o = traced_stream(Es2Config::pi(), /*vm_sends=*/true);
  const StreamResult a = run_stream(o);
  const StreamResult b = run_stream(o);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  ASSERT_FALSE(a.trace->records.empty());
  EXPECT_EQ(a.trace->records, b.trace->records);
}

TEST(TracePath, TracingDoesNotPerturbTheRun) {
  StreamOptions traced = traced_stream(Es2Config::baseline(), true);
  StreamOptions plain = traced;
  plain.trace = TraceOptions{};  // same run, tracing off
  const StreamResult with = run_stream(traced);
  const StreamResult without = run_stream(plain);
  ASSERT_NE(with.trace, nullptr);
  EXPECT_EQ(without.trace, nullptr);
  EXPECT_DOUBLE_EQ(with.throughput_mbps, without.throughput_mbps);
  EXPECT_DOUBLE_EQ(with.packets_per_sec, without.packets_per_sec);
  EXPECT_DOUBLE_EQ(with.kicks_per_sec, without.kicks_per_sec);
  EXPECT_DOUBLE_EQ(with.guest_irqs_per_sec, without.guest_irqs_per_sec);
  EXPECT_DOUBLE_EQ(with.exits.total, without.exits.total);
}

TEST(TracePath, PostedInterruptsRemoveDeliveryAndEoiExits) {
  const StreamResult base =
      run_stream(traced_stream(Es2Config::baseline(), /*vm_sends=*/true));
  const StreamResult pi =
      run_stream(traced_stream(Es2Config::pi(), /*vm_sends=*/true));
  ASSERT_NE(base.trace, nullptr);
  ASSERT_NE(pi.trace, nullptr);

  // Baseline: kick-IPI delivery exits and trapped EOI writes on the path.
  EXPECT_GT(count_exits(base.trace->records, ExitReason::kExternalInterrupt),
            0);
  EXPECT_GT(count_exits(base.trace->records, ExitReason::kApicAccess), 0);
  EXPECT_GT(count_kind(base.trace->records, TraceKind::kLapicPost), 0);

  // PI: the same workload's trace has NO delivery or completion exits —
  // interrupts arrive via PIR posts and complete via virtual EOI.
  EXPECT_EQ(count_exits(pi.trace->records, ExitReason::kExternalInterrupt), 0);
  EXPECT_EQ(count_exits(pi.trace->records, ExitReason::kApicAccess), 0);
  EXPECT_GT(count_kind(pi.trace->records, TraceKind::kPiPost), 0);
  EXPECT_GT(count_kind(pi.trace->records, TraceKind::kEoi), 0);
}

TEST(TracePath, TracedRunStitchesCompleteJourneys) {
  const StreamResult r =
      run_stream(traced_stream(Es2Config::pi(), /*vm_sends=*/false));
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.stages.journeys, 0);
  EXPECT_GT(r.stages.complete, 0);
  EXPECT_GT(r.stages.end_to_end_p50, 0);
  EXPECT_GT(r.stages.msi_to_dispatch_p50, 0);
  EXPECT_GT(r.stages.dispatch_to_eoi_p50, 0);
  // The Perfetto export of the same run is valid JSON with its events.
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(to_perfetto_json(r.trace->records, r.trace->spans),
                          &doc, &error))
      << error;
  EXPECT_TRUE(doc.has("traceEvents"));
}

TEST(TracePath, ChaosTraceShowsMissedMsiWatchdogRecovery) {
  // Differential chaos check, mirroring fault_test's
  // MissedMsiRecoveredByWatchdogNapiPoll but asserting on the *trace*:
  // the record stream must show MSIs being swallowed and, later, the
  // watchdog's recovery NAPI poll.
  ChaosStreamOptions co;
  co.stream = traced_stream(Es2Config::pi(), /*vm_sends=*/false);
  co.stream.measure = msec(300);
  // Large enough that ring wraparound cannot evict the first MSI drop.
  co.stream.trace.capacity = std::size_t{1} << 20;
  co.faults.msi_loss = 0.2;
  co.tx_watchdog = true;
  co.budget.max_sim_time = sec(2);
  const ChaosStreamResult r = run_chaos_stream(co, "trace-msi-recover");
  ASSERT_EQ(r.report.status, ScenarioStatus::kOk);
  ASSERT_NE(r.stream.trace, nullptr);
  const std::vector<TraceRecord>& records = r.stream.trace->records;

  EXPECT_GT(count_kind(records, TraceKind::kMsiDrop), 0);
  SimTime first_drop = -1;
  SimTime first_recover = -1;
  for (const TraceRecord& rec : records) {
    if (rec.kind == TraceKind::kMsiDrop && first_drop < 0) first_drop = rec.t;
    if (rec.kind == TraceKind::kWatchdogRecover && rec.arg == 1 &&
        first_recover < 0) {
      first_recover = rec.t;
    }
  }
  ASSERT_GE(first_drop, 0);
  ASSERT_GE(first_recover, 0) << "no watchdog RX recovery in the trace";
  EXPECT_GT(first_recover, first_drop);
  EXPECT_GT(r.rx_watchdog_polls, 0);
}

}  // namespace
}  // namespace es2
