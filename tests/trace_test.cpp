// Tracer unit tests: ring-buffer wraparound, correlation-id plumbing, the
// span builder on hand-crafted record sequences, exporter round-trips and
// the zero-allocation guarantee on the hot emit path (this binary links
// es2_alloc_hook).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/alloc_hook.h"
#include "harness/runner.h"
#include "sim/invariant_auditor.h"
#include "sim/simulator.h"
#include "trace/export.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace es2 {
namespace {

Tracer make_tracer(std::size_t capacity) {
  TraceOptions o;
  o.capacity = capacity;
  return Tracer(o);
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

TEST(TracerRing, KeepsRecordsInEmitOrder) {
  Tracer tracer = make_tracer(64);
  for (int i = 0; i < 10; ++i) {
    tracer.emit(i * 10, TraceKind::kVmExit, 0, 0, 2,
                static_cast<std::uint32_t>(i));
  }
  const std::vector<TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].t, i * 10);
    EXPECT_EQ(records[static_cast<std::size_t>(i)].arg,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(records[static_cast<std::size_t>(i)].cpu, 2);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerRing, WraparoundKeepsTheNewestRecords) {
  Tracer tracer = make_tracer(8);
  for (int i = 0; i < 20; ++i) {
    tracer.emit(i, TraceKind::kKick, 0, -1, -1);
  }
  EXPECT_EQ(tracer.emitted(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const std::vector<TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].t, 12 + i);
  }
}

TEST(TracerRing, CapacityCrossingSlabBoundaryGrowsCorrectly) {
  // 10000 > one 4096-record slab: forces multi-slab growth.
  Tracer tracer = make_tracer(10000);
  for (int i = 0; i < 10000; ++i) {
    tracer.emit(i, TraceKind::kSchedIn, -1, -1, 0);
  }
  const std::vector<TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 10000u);
  EXPECT_EQ(records.front().t, 0);
  EXPECT_EQ(records.back().t, 9999);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Correlation plumbing
// ---------------------------------------------------------------------------

TEST(TracerCorr, JourneyIdsStartAtOneAndIncrement) {
  Tracer tracer = make_tracer(16);
  EXPECT_EQ(tracer.begin_journey(), 1u);
  EXPECT_EQ(tracer.begin_journey(), 2u);
  EXPECT_EQ(tracer.begin_journey(), 3u);
}

TEST(TracerCorr, InflightRegisterIsTakeOnce) {
  Tracer tracer = make_tracer(16);
  tracer.set_inflight(7);
  EXPECT_EQ(tracer.take_inflight(), 7u);
  EXPECT_EQ(tracer.take_inflight(), 0u);
}

TEST(TracerCorr, VectorMapIsKeyedAndConsuming) {
  Tracer tracer = make_tracer(16);
  tracer.remember_vector(0, 0, 33, 5);
  tracer.remember_vector(1, 2, 34, 9);
  EXPECT_EQ(tracer.vector_corr(0, 0, 33), 5u);  // peek does not consume
  EXPECT_EQ(tracer.vector_corr(0, 0, 33), 5u);
  EXPECT_EQ(tracer.take_vector_corr(0, 0, 33), 5u);
  EXPECT_EQ(tracer.take_vector_corr(0, 0, 33), 0u);
  EXPECT_EQ(tracer.take_vector_corr(1, 2, 34), 9u);
  // Unknown key and out-of-range coordinates are safe zeros.
  EXPECT_EQ(tracer.vector_corr(0, 0, 99), 0u);
  EXPECT_EQ(tracer.take_vector_corr(-1, 0, 33), 0u);
  EXPECT_EQ(tracer.vector_corr(0, 500, 33), 0u);
}

TEST(TracerCorr, ServiceStackNestsPerVcpu) {
  Tracer tracer = make_tracer(16);
  EXPECT_EQ(tracer.current_service(0, 0), 0u);
  EXPECT_EQ(tracer.pop_service(0, 0), 0u);  // pop on empty is a safe zero
  tracer.push_service(0, 0, 11);
  tracer.push_service(0, 0, 22);  // nested interrupt
  tracer.push_service(0, 1, 33);  // different vcpu, independent stack
  EXPECT_EQ(tracer.current_service(0, 0), 22u);
  EXPECT_EQ(tracer.current_service(0, 1), 33u);
  EXPECT_EQ(tracer.pop_service(0, 0), 22u);
  EXPECT_EQ(tracer.current_service(0, 0), 11u);
  EXPECT_EQ(tracer.pop_service(0, 0), 11u);
  EXPECT_EQ(tracer.pop_service(0, 1), 33u);
}

TEST(TracerCorr, LastCorrTracksMostRecentCorrelatedEmit) {
  Tracer tracer = make_tracer(16);
  EXPECT_EQ(tracer.last_corr(), 0u);
  tracer.emit(1, TraceKind::kKick, 0, -1, -1, 0, 42);
  tracer.emit(2, TraceKind::kSchedIn, -1, -1, 0);  // uncorrelated: no change
  EXPECT_EQ(tracer.last_corr(), 42u);
  tracer.emit(3, TraceKind::kMsiRaise, 0, -1, -1, 0, 43);
  EXPECT_EQ(tracer.last_corr(), 43u);
}

// ---------------------------------------------------------------------------
// Span builder
// ---------------------------------------------------------------------------

TEST(SpanBuilder, StitchesOneCompleteJourney) {
  Tracer tracer = make_tracer(64);
  tracer.emit(100, TraceKind::kKick, 0, -1, -1, 0, 7);
  tracer.emit(250, TraceKind::kWorkerTurn, 0, -1, 4, 0, 7);
  tracer.emit(400, TraceKind::kMsiRaise, 0, -1, 4, 33, 7);
  tracer.emit(600, TraceKind::kIrqDispatch, 0, 0, 1, 33, 7);
  tracer.emit(900, TraceKind::kEoi, 0, 0, 1, 0, 7);

  std::vector<JourneySpan> spans;
  const SpanBreakdown b = build_spans(tracer.snapshot(), &spans);
  ASSERT_EQ(spans.size(), 1u);
  const JourneySpan& s = spans[0];
  EXPECT_EQ(s.corr, 7u);
  EXPECT_EQ(s.vm, 0);
  EXPECT_EQ(s.vcpu, 0);
  EXPECT_EQ(s.kick, 100);
  EXPECT_EQ(s.backend, 250);
  EXPECT_EQ(s.msi, 400);
  EXPECT_EQ(s.dispatch, 600);
  EXPECT_EQ(s.eoi, 900);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.start(), 100);

  EXPECT_EQ(b.journeys, 1);
  EXPECT_EQ(b.complete, 1);
  EXPECT_EQ(b.partial, 0);
  EXPECT_EQ(b.kick_to_backend.count(), 1);
  EXPECT_EQ(b.backend_to_msi.count(), 1);
  EXPECT_EQ(b.msi_to_dispatch.count(), 1);
  EXPECT_EQ(b.dispatch_to_eoi.count(), 1);
  EXPECT_EQ(b.end_to_end.count(), 1);
  // Log-bucketed histogram: ~3% relative error bound.
  EXPECT_NEAR(static_cast<double>(b.kick_to_backend.p50()), 150.0, 15.0);
  EXPECT_NEAR(static_cast<double>(b.dispatch_to_eoi.p50()), 300.0, 30.0);
  EXPECT_NEAR(static_cast<double>(b.end_to_end.p50()), 800.0, 80.0);
}

TEST(SpanBuilder, LandmarksRecordFirstOccurrenceOnly) {
  // A coalesced journey posts twice; the span keeps the earliest MSI.
  Tracer tracer = make_tracer(64);
  tracer.emit(100, TraceKind::kKick, 0, -1, -1, 0, 3);
  tracer.emit(200, TraceKind::kMsiRaise, 0, -1, 4, 33, 3);
  tracer.emit(300, TraceKind::kPiCoalesced, 0, 0, 4, 33, 3);
  std::vector<JourneySpan> spans;
  build_spans(tracer.snapshot(), &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].msi, 200);
}

TEST(SpanBuilder, WireRxOpensTheJourneyLikeAKick) {
  Tracer tracer = make_tracer(64);
  tracer.emit(50, TraceKind::kWireRx, 0, -1, -1, 0, 9);
  tracer.emit(180, TraceKind::kWorkerTurn, 0, -1, 4, 1, 9);
  tracer.emit(320, TraceKind::kMsiRaise, 0, -1, 4, 34, 9);
  tracer.emit(500, TraceKind::kIrqDispatch, 0, 0, 0, 34, 9);
  tracer.emit(700, TraceKind::kEoi, 0, 0, 0, 0, 9);
  std::vector<JourneySpan> spans;
  const SpanBreakdown b = build_spans(tracer.snapshot(), &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kick, 50);
  EXPECT_TRUE(spans[0].complete());
  EXPECT_EQ(b.complete, 1);
}

TEST(SpanBuilder, PartialJourneysFeedTheStagesTheyCompleted) {
  Tracer tracer = make_tracer(64);
  // Journey 1: kick serviced, interrupt suppressed — no msi/dispatch/eoi.
  tracer.emit(100, TraceKind::kKick, 0, -1, -1, 0, 1);
  tracer.emit(260, TraceKind::kWorkerTurn, 0, -1, 4, 0, 1);
  // Journey 2: timer-style — no kick, straight to post/dispatch/eoi.
  tracer.emit(400, TraceKind::kPiPost, 0, 0, 1, 48, 2);
  tracer.emit(550, TraceKind::kIrqDispatch, 0, 0, 1, 48, 2);
  tracer.emit(800, TraceKind::kEoi, 0, 0, 1, 0, 2);

  std::vector<JourneySpan> spans;
  const SpanBreakdown b = build_spans(tracer.snapshot(), &spans);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_FALSE(spans[0].complete());
  EXPECT_TRUE(spans[1].complete());
  EXPECT_EQ(spans[1].kick, -1);
  EXPECT_EQ(b.journeys, 2);
  EXPECT_EQ(b.complete, 1);
  EXPECT_EQ(b.partial, 1);
  EXPECT_EQ(b.kick_to_backend.count(), 1);   // journey 1 only
  EXPECT_EQ(b.msi_to_dispatch.count(), 1);   // journey 2 only
  EXPECT_EQ(b.dispatch_to_eoi.count(), 1);
  EXPECT_EQ(b.end_to_end.count(), 1);        // journey 2: first landmark->eoi
}

TEST(SpanBuilder, UncorrelatedRecordsFormNoJourney) {
  Tracer tracer = make_tracer(64);
  tracer.emit(10, TraceKind::kSchedIn, -1, -1, 0, 5);
  tracer.emit(20, TraceKind::kVmExit, 0, 0, 1, 2);
  std::vector<JourneySpan> spans;
  const SpanBreakdown b = build_spans(tracer.snapshot(), &spans);
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(b.journeys, 0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

std::vector<TraceRecord> sample_records() {
  Tracer tracer = make_tracer(64);
  tracer.emit(100, TraceKind::kKick, 0, -1, -1, 0, 7);
  tracer.emit(250, TraceKind::kWorkerTurn, 0, -1, 4, 0, 7);
  tracer.emit(400, TraceKind::kMsiRaise, 0, -1, 4, 33, 7);
  tracer.emit(600, TraceKind::kIrqDispatch, 0, 0, 1, 33, 7);
  tracer.emit(900, TraceKind::kEoi, 0, 0, 1, 0, 7);
  tracer.emit(950, TraceKind::kSchedOut, -1, -1, 1, 12);
  return tracer.snapshot();
}

TEST(TraceExport, BinaryRoundTripIsLossless) {
  const std::vector<TraceRecord> records = sample_records();
  const std::string blob = to_binary(records);
  EXPECT_EQ(blob.size(), 16u + records.size() * 24u);
  std::vector<TraceRecord> back;
  ASSERT_TRUE(read_binary(blob, &back));
  EXPECT_EQ(back, records);
}

TEST(TraceExport, BinaryReaderRejectsCorruptInput) {
  const std::string blob = to_binary(sample_records());
  std::vector<TraceRecord> out;

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(read_binary(bad_magic, &out));
  EXPECT_TRUE(out.empty());

  std::string truncated = blob.substr(0, blob.size() - 5);
  EXPECT_FALSE(read_binary(truncated, &out));
  EXPECT_TRUE(out.empty());

  EXPECT_FALSE(read_binary(std::string("ES"), &out));
}

TEST(TraceExport, EmptyTraceRoundTrips) {
  std::vector<TraceRecord> out{TraceRecord{}};
  ASSERT_TRUE(read_binary(to_binary({}), &out));
  EXPECT_TRUE(out.empty());
}

TEST(TraceExport, PerfettoJsonIsStructurallyValid) {
  std::vector<JourneySpan> spans;
  std::vector<TraceRecord> records = sample_records();
  build_spans(records, &spans);
  const std::string json = to_perfetto_json(records, spans);
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("msi_raise"), std::string::npos);
}

TEST(TraceExport, JsonValidatorRejectsMalformedInput) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("{\"a\": [1, 2.5, \"x\", null, true]}"));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\": }"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid(""));
}

// ---------------------------------------------------------------------------
// Zero allocations on the hot path (this binary links es2_alloc_hook)
// ---------------------------------------------------------------------------

TEST(TracerAlloc, SteadyStateEmitAllocatesNothing) {
  constexpr std::size_t kCapacity = 1 << 12;
  Tracer tracer = make_tracer(kCapacity);
  // Warm up: fill the ring completely (allocates its slabs) and touch the
  // correlation structures for every (vm, vcpu) the loop below uses.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    tracer.emit(static_cast<SimTime>(i), TraceKind::kVmExit, 0, 0, 1);
  }
  tracer.remember_vector(0, 0, 33, 1);
  (void)tracer.take_vector_corr(0, 0, 33);
  tracer.push_service(0, 0, 1);
  (void)tracer.pop_service(0, 0);

  test::AllocationCounter counter;
  for (std::size_t i = 0; i < 3 * kCapacity; ++i) {
    const std::uint64_t corr = tracer.begin_journey();
    tracer.emit(static_cast<SimTime>(i), TraceKind::kKick, 0, 0, 1, 0, corr);
    tracer.set_inflight(corr);
    tracer.emit(static_cast<SimTime>(i), TraceKind::kMsiRaise, 0, 0, 4, 33,
                tracer.take_inflight());
    tracer.remember_vector(0, 0, 33, corr);
    tracer.push_service(0, 0, tracer.take_vector_corr(0, 0, 33));
    tracer.emit(static_cast<SimTime>(i), TraceKind::kEoi, 0, 0, 1, 0,
                tracer.pop_service(0, 0));
  }
  EXPECT_EQ(counter.delta(), 0);
  EXPECT_GT(tracer.dropped(), 0u);  // the ring really wrapped
}

// ---------------------------------------------------------------------------
// Audit / watchdog reports carry the nearest correlation id
// ---------------------------------------------------------------------------

TEST(TraceAnnotation, AuditorViolationCarriesNearestCorr) {
  Simulator sim(1);
  Tracer tracer = make_tracer(64);
  sim.set_tracer(&tracer);
  tracer.emit(0, TraceKind::kKick, 0, -1, -1, 0, 42);

  InvariantAuditor auditor(sim);
  auditor.add_check("always-fails", [] {
    return std::optional<std::string>("synthetic violation");
  });
  EXPECT_EQ(auditor.run_now(), 1);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].corr, 42u);
  EXPECT_NE(auditor.violations()[0].message.find("corr=42"),
            std::string::npos);
}

TEST(TraceAnnotation, AuditorWithoutTracerLeavesCorrZero) {
  Simulator sim(1);
  InvariantAuditor auditor(sim);
  auditor.add_check("always-fails", [] {
    return std::optional<std::string>("synthetic violation");
  });
  EXPECT_EQ(auditor.run_now(), 1);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].corr, 0u);
  EXPECT_EQ(auditor.violations()[0].message.find("corr="), std::string::npos);
}

TEST(TraceAnnotation, WatchdogTripCarriesNearestCorr) {
  Simulator sim(1);
  Tracer tracer = make_tracer(64);
  sim.set_tracer(&tracer);
  tracer.emit(0, TraceKind::kMsiRaise, 0, -1, 4, 33, 42);

  ScenarioBudget budget;
  budget.max_sim_time = msec(1);
  // Slices shorter than the span so the budget check runs mid-span (the
  // watchdog only checks budgets between slices).
  budget.progress_window = msec(1);
  ScenarioWatchdog wd(sim, budget);
  // run_until advances the clock even with an empty queue, so this span
  // blows the sim-time budget and trips the watchdog.
  EXPECT_FALSE(wd.run_for(msec(10), nullptr));
  EXPECT_EQ(wd.status(), ScenarioStatus::kSimTimeBudget);
  const ScenarioReport report = wd.report("trace-corr");
  EXPECT_NE(report.detail.find("corr=42"), std::string::npos);
}

}  // namespace
}  // namespace es2
