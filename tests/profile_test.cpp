// Profile-layer tests: the critical-path blame analyzer on hand-crafted
// record sequences (exact partition, incomplete/coalesced journeys, the
// worst-journey ledger), the es2-blame-v1 exporter round-trip and diff,
// the folded flame-graph stacks of the partition, and — against real
// streams — the passivity contract (profiling a run must not change it)
// and exact, deterministic exports.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "profile/blame.h"
#include "profile/blame_export.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace es2 {
namespace {

TraceRecord rec(SimTime t, TraceKind kind, std::uint64_t corr = 0,
                std::uint32_t arg = 0, int vm = -1, int vcpu = -1) {
  TraceRecord r;
  r.t = t;
  r.kind = kind;
  r.corr = corr;
  r.arg = arg;
  r.vm = static_cast<std::int8_t>(vm);
  r.vcpu = static_cast<std::int8_t>(vcpu);
  return r;
}

// One fully-landmarked TX journey with every attribution cut present:
//   kick 1000, wake 1100, worker on-core 1250, turn 1400, suppression
//   decision 1600, MSI 1900, vcpu on-core 2000, dispatch 2200, EOI 2600.
std::vector<TraceRecord> full_journey(std::uint64_t corr, SimTime base) {
  return {
      rec(base + 0, TraceKind::kKick, corr, /*queue=*/0, 0),
      rec(base + 100, TraceKind::kWorkerWake),
      rec(base + 250, TraceKind::kSchedIn, 0, trace_thread_tag("vhost-vm0")),
      rec(base + 400, TraceKind::kWorkerTurn, corr, 0),
      rec(base + 600, TraceKind::kIrqSuppressed, corr, 0),
      rec(base + 900, TraceKind::kMsiRaise, corr, 33, 0),
      rec(base + 1000, TraceKind::kSchedIn, 0, trace_thread_tag("vm0/vcpu0")),
      rec(base + 1200, TraceKind::kIrqDispatch, corr, 33, 0, 0),
      rec(base + 1600, TraceKind::kEoi, corr, 0, 0, 0),
  };
}

/// Stitches `records` once and blames the journeys, as the harness does.
BlameBreakdown analyze(const std::vector<TraceRecord>& records) {
  std::vector<JourneySpan> journeys;
  build_spans(records, &journeys);
  return analyze_blame(records, journeys);
}

SimDuration ns_of(const BlameBreakdown& b, BlameComponent c) {
  return b.component_ns[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------------------
// Critical-path analyzer
// ---------------------------------------------------------------------------

TEST(BlameAnalyzer, AttributesEveryNanosecondExactly) {
  const BlameBreakdown b = analyze(full_journey(7, 1000));
  EXPECT_EQ(b.journeys, 1);
  EXPECT_EQ(b.complete, 1);
  EXPECT_EQ(b.total_ns, 1600);
  EXPECT_EQ(ns_of(b, BlameComponent::kNotifyWake), 100);
  EXPECT_EQ(ns_of(b, BlameComponent::kSchedDelay), 150);
  EXPECT_EQ(ns_of(b, BlameComponent::kQueueWait), 150);
  EXPECT_EQ(ns_of(b, BlameComponent::kBackendService), 200);
  EXPECT_EQ(ns_of(b, BlameComponent::kSuppression), 300);
  EXPECT_EQ(ns_of(b, BlameComponent::kVcpuWait), 100);
  EXPECT_EQ(ns_of(b, BlameComponent::kMsiDelivery), 200);
  EXPECT_EQ(ns_of(b, BlameComponent::kGuestService), 400);

  std::int64_t sum = 0;
  double fraction_sum = 0;
  for (std::size_t c = 0; c < kBlameComponents; ++c) {
    sum += b.component_ns[c];
    fraction_sum += b.fraction(static_cast<BlameComponent>(c));
  }
  EXPECT_EQ(sum, b.total_ns);
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
}

TEST(BlameAnalyzer, IncompleteJourneyIsCountedButNotAttributed) {
  std::vector<TraceRecord> records = full_journey(7, 1000);
  records.pop_back();  // drop the EOI
  const BlameBreakdown b = analyze(records);
  EXPECT_EQ(b.journeys, 1);
  EXPECT_EQ(b.complete, 0);
  EXPECT_EQ(b.total_ns, 0);
}

TEST(BlameAnalyzer, CoalescedLandmarkOrderIsSkipped) {
  // MSI recorded before the worker turn: not a monotone journey.
  std::vector<TraceRecord> records = {
      rec(1000, TraceKind::kKick, 9, 0, 0),
      rec(1100, TraceKind::kMsiRaise, 9, 33, 0),
      rec(1200, TraceKind::kWorkerTurn, 9, 0),
      rec(1300, TraceKind::kIrqDispatch, 9, 33, 0, 0),
      rec(1400, TraceKind::kEoi, 9, 0, 0, 0),
  };
  const BlameBreakdown b = analyze(records);
  EXPECT_EQ(b.journeys, 1);
  EXPECT_EQ(b.complete, 0);
}

TEST(BlameAnalyzer, JourneyWithoutWakeChargesQueueWait) {
  // No worker wake / sched-in records: the origin->turn gap is all queue
  // residency, and without a wake no sched delay may be claimed.
  std::vector<TraceRecord> records = {
      rec(1000, TraceKind::kKick, 11, 0, 0),
      rec(1500, TraceKind::kWorkerTurn, 11, 0),
      rec(1600, TraceKind::kMsiRaise, 11, 33, 0),
      rec(1700, TraceKind::kIrqDispatch, 11, 33, 0, 0),
      rec(1800, TraceKind::kEoi, 11, 0, 0, 0),
  };
  const BlameBreakdown b = analyze(records);
  EXPECT_EQ(b.complete, 1);
  EXPECT_EQ(ns_of(b, BlameComponent::kNotifyWake), 0);
  EXPECT_EQ(ns_of(b, BlameComponent::kSchedDelay), 0);
  EXPECT_EQ(ns_of(b, BlameComponent::kQueueWait), 500);
  // No suppression decision either: the turn->msi span is all service.
  EXPECT_EQ(ns_of(b, BlameComponent::kBackendService), 100);
  EXPECT_EQ(ns_of(b, BlameComponent::kSuppression), 0);
}

TEST(BlameAnalyzer, WireRxOriginMapsToTheRxQueue) {
  std::vector<TraceRecord> records = {
      rec(1000, TraceKind::kWireRx, 13, /*pair=*/1),
      rec(1500, TraceKind::kWorkerTurn, 13, 3),
      rec(1600, TraceKind::kMsiRaise, 13, 34, 0),
      rec(1700, TraceKind::kIrqDispatch, 13, 34, 0, 0),
      rec(1800, TraceKind::kEoi, 13, 0, 0, 0),
  };
  const BlameBreakdown b = analyze(records);
  ASSERT_EQ(b.worst.size(), 1u);
  EXPECT_EQ(b.worst[0].queue, 3);  // pair 1 -> flat RX queue index 3
  EXPECT_FALSE(b.worst[0].tx_origin);
  ASSERT_EQ(b.groups.size(), 1u);
  EXPECT_EQ(b.groups[0].queue, 3);
  EXPECT_EQ(b.groups[0].journeys, 1);
}

TEST(BlameAnalyzer, LedgerIsWorstFirstAndDeterministic) {
  // 2000 short journeys (total 1600) hold p99, so each of the 12 long ones
  // (guest service stretched: totals 11600 .. 22600) is beyond it; the
  // ledger keeps the 8 worst of them, worst first.
  constexpr int kShort = 2000;
  constexpr int kLong = 12;
  std::vector<TraceRecord> records;
  for (int i = 0; i < kShort + kLong; ++i) {
    std::vector<TraceRecord> j =
        full_journey(static_cast<std::uint64_t>(100 + i), 100000 * (i + 1));
    if (i >= kShort) j.back().t += 10000 + 1000 * (i - kShort);
    records.insert(records.end(), j.begin(), j.end());
  }
  const BlameBreakdown a = analyze(records);
  EXPECT_EQ(a.complete, kShort + kLong);
  EXPECT_LT(a.ledger_threshold, 11600);
  ASSERT_EQ(a.worst.size(), 8u);
  for (std::size_t i = 0; i < a.worst.size(); ++i) {
    const std::uint64_t corr = 100 + kShort + kLong - 1 - i;
    EXPECT_EQ(a.worst[i].corr, corr);
    EXPECT_EQ(a.worst[i].total(), 22600 - 1000 * static_cast<SimDuration>(i));
  }

  // Same input -> identical ledger, including the rendered critical paths.
  const BlameBreakdown b = analyze(records);
  ASSERT_EQ(b.worst.size(), a.worst.size());
  for (std::size_t i = 0; i < a.worst.size(); ++i) {
    EXPECT_EQ(blame_critical_path(a.worst[i]), blame_critical_path(b.worst[i]));
  }
}

TEST(BlameAnalyzer, GroupsAccumulatePerVmQueue) {
  std::vector<TraceRecord> records = full_journey(31, 1000);
  std::vector<TraceRecord> second = full_journey(32, 50000);
  records.insert(records.end(), second.begin(), second.end());
  const BlameBreakdown b = analyze(records);
  ASSERT_EQ(b.groups.size(), 1u);
  EXPECT_EQ(b.groups[0].vm, 0);
  EXPECT_EQ(b.groups[0].queue, 0);
  EXPECT_EQ(b.groups[0].journeys, 2);
  EXPECT_EQ(b.groups[0].total, 3200);
}

// ---------------------------------------------------------------------------
// es2-blame-v1 export
// ---------------------------------------------------------------------------

TEST(BlameExport, JsonIsByteStableAndRoundTrips) {
  const BlameBreakdown b = analyze(full_journey(7, 1000));
  const std::string text = blame_to_json_text(b);
  EXPECT_EQ(text, blame_to_json_text(b));
  EXPECT_NE(text.find(kBlameSchema), std::string::npos);

  BlameSummary parsed;
  std::string error;
  ASSERT_TRUE(blame_summary_from_json(text, &parsed, &error)) << error;
  const BlameSummary direct = blame_summary(b);
  EXPECT_EQ(parsed.journeys, direct.journeys);
  EXPECT_EQ(parsed.complete, direct.complete);
  EXPECT_EQ(parsed.total_ns, direct.total_ns);
  ASSERT_EQ(parsed.components.size(), direct.components.size());
  for (std::size_t i = 0; i < parsed.components.size(); ++i) {
    EXPECT_EQ(parsed.components[i].name, direct.components[i].name);
    EXPECT_EQ(parsed.components[i].ns, direct.components[i].ns);
    EXPECT_DOUBLE_EQ(parsed.components[i].fraction,
                     direct.components[i].fraction);
  }
}

TEST(BlameExport, NonIntegerNanosecondsAreAParseError) {
  const std::string text =
      blame_to_json_text(analyze(full_journey(7, 1000)));
  const std::string key = "\"total_ns\": ";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = text.find_first_of(",\n}", at + key.size());
  for (const char* bad : {"1e300", "2.5"}) {
    std::string edited = text;
    edited.replace(at + key.size(), end - at - key.size(), bad);
    BlameSummary parsed;
    std::string error;
    EXPECT_FALSE(blame_summary_from_json(edited, &parsed, &error)) << bad;
    EXPECT_NE(error.find("total_ns"), std::string::npos) << error;
  }
}

TEST(BlameExport, MarkdownCarriesTheBudgetTable) {
  const std::string md =
      render_blame_markdown(blame_summary(analyze(full_journey(7, 1000))));
  EXPECT_NE(md.find("guest_service"), std::string::npos);
  EXPECT_NE(md.find("| **total** |"), std::string::npos);
}

TEST(BlameExport, DiffNamesTheRegressedComponent) {
  const BlameSummary a = blame_summary(analyze(full_journey(7, 1000)));
  // Same journey with the suppression window stretched by 600ns: its
  // share grows at everyone else's expense.
  std::vector<TraceRecord> slow = full_journey(7, 1000);
  for (TraceRecord& r : slow) {
    if (r.t >= 1900) r.t += 600;  // push msi and everything after
  }
  const BlameSummary b = blame_summary(analyze(slow));
  const BlameDiff d = diff_blame(a, b);
  EXPECT_EQ(d.regressed, "suppression");
  EXPECT_GT(d.regressed_delta, 0.0);
  EXPECT_NE(render_blame_diff_markdown(d).find("suppression"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Folded profile (profile.folded): the blame partition as collapsed stacks
// ---------------------------------------------------------------------------

TEST(ProfExport, CollapsedStacksAreSortedAndDeterministic) {
  // Journey 7 on TX queue 0; journey 8 arrives from the wire on pair 1
  // (flat RX queue 3) with no wake or sched-in of its own to cut on.
  std::vector<TraceRecord> records = full_journey(7, 1000);
  const std::vector<TraceRecord> rx = {
      rec(5000, TraceKind::kWireRx, 8, /*pair=*/1),
      rec(5300, TraceKind::kWorkerTurn, 8, 3),
      rec(5400, TraceKind::kMsiRaise, 8, 34, 0),
      rec(5450, TraceKind::kIrqDispatch, 8, 34, 0, 0),
      rec(5700, TraceKind::kEoi, 8, 0, 0, 0),
  };
  records.insert(records.end(), rx.begin(), rx.end());
  const BlameBreakdown b = analyze(records);
  const std::string folded = blame_to_collapsed(b);
  EXPECT_EQ(folded, blame_to_collapsed(analyze(records)));
  // Sorted, one line per non-zero (component, vm, queue) cell, weighted
  // by sim-ns; zero cells (queue 3 has no wake, sched, suppression or
  // vCPU wait) write no line.
  EXPECT_EQ(folded,
            "sim;backend_service;vm0:q0 200\n"
            "sim;backend_service;vm0:q3 100\n"
            "sim;guest_service;vm0:q0 400\n"
            "sim;guest_service;vm0:q3 250\n"
            "sim;msi_delivery;vm0:q0 200\n"
            "sim;msi_delivery;vm0:q3 50\n"
            "sim;notify_wake;vm0:q0 100\n"
            "sim;queue_wait;vm0:q0 150\n"
            "sim;queue_wait;vm0:q3 300\n"
            "sim;sched_delay;vm0:q0 150\n"
            "sim;suppression;vm0:q0 300\n"
            "sim;vcpu_wait;vm0:q0 100\n");
  // A breakdown that attributed nothing renders no frames.
  EXPECT_EQ(blame_to_collapsed(BlameBreakdown{}), "");
}

// ---------------------------------------------------------------------------
// End-to-end: passivity + determinism against real streams
// ---------------------------------------------------------------------------

StreamOptions short_stream(std::uint64_t seed) {
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.seed = seed;
  o.warmup = msec(50);
  o.measure = msec(200);
  return o;
}

StreamOptions traced_stream(std::uint64_t seed) {
  StreamOptions o = short_stream(seed);
  o.trace.enabled = true;
  o.trace.capacity = std::size_t{1} << 17;
  return o;
}

/// Sum of the weights of a collapsed-stack text.
std::int64_t folded_weight(const std::string& folded) {
  std::int64_t sum = 0;
  std::size_t line = 0;
  while (line < folded.size()) {
    const std::size_t end = folded.find('\n', line);
    const std::size_t space = folded.rfind(' ', end);
    sum += std::stoll(folded.substr(space + 1, end - space - 1));
    line = end + 1;
  }
  return sum;
}

TEST(ProfilePath, ProfilingIsPassive) {
  // The strong oracle: the profile (the blame partition of the traced
  // journeys) costs the run nothing. Profiled and unprofiled same-seed
  // runs must agree on every headline number AND on the epoch state-hash
  // series (the bit-identity witness for the whole world).
  StreamOptions profiled = traced_stream(41);
  profiled.snapshot.hash_epochs = true;
  StreamOptions plain = short_stream(41);
  plain.snapshot.hash_epochs = true;

  const StreamResult with = run_stream(profiled);
  const StreamResult without = run_stream(plain);
  ASSERT_NE(with.trace, nullptr);
  EXPECT_GT(with.trace->blame.complete, 0);
  EXPECT_EQ(without.trace, nullptr);
  EXPECT_DOUBLE_EQ(with.throughput_mbps, without.throughput_mbps);
  EXPECT_DOUBLE_EQ(with.packets_per_sec, without.packets_per_sec);
  EXPECT_DOUBLE_EQ(with.kicks_per_sec, without.kicks_per_sec);
  EXPECT_DOUBLE_EQ(with.exits.total, without.exits.total);
  ASSERT_NE(with.hashes, nullptr);
  ASSERT_NE(without.hashes, nullptr);
  EXPECT_EQ(with.hashes->to_json_text(), without.hashes->to_json_text());
}

TEST(ProfilePath, SameSeedProfileExportsAreByteIdentical) {
  const StreamResult a = run_stream(traced_stream(42));
  const StreamResult b = run_stream(traced_stream(42));
  const std::string folded = blame_to_collapsed(a.trace->blame);
  ASSERT_FALSE(folded.empty());
  EXPECT_EQ(folded, blame_to_collapsed(b.trace->blame));
}

TEST(ProfilePath, SameSeedBlameExportsAreByteIdentical) {
  const StreamResult a = run_stream(traced_stream(43));
  const StreamResult b = run_stream(traced_stream(43));
  const BlameBreakdown& ba = a.trace->blame;
  const BlameBreakdown& bb = b.trace->blame;
  ASSERT_GT(ba.complete, 0);
  EXPECT_EQ(blame_to_json_text(ba), blame_to_json_text(bb));
  ASSERT_EQ(ba.worst.size(), bb.worst.size());
  for (std::size_t i = 0; i < ba.worst.size(); ++i) {
    EXPECT_EQ(blame_critical_path(ba.worst[i]),
              blame_critical_path(bb.worst[i]));
  }
}

TEST(ProfilePath, BlameFractionsSumToTracedJourneyTotals) {
  const StreamResult r = run_stream(traced_stream(44));
  const BlameBreakdown& b = r.trace->blame;
  ASSERT_GT(b.complete, 0);
  // Blame reads the span builder's journeys: both count the same ones.
  EXPECT_EQ(b.journeys, r.trace->breakdown.journeys);
  std::int64_t sum = 0;
  double fraction_sum = 0;
  for (std::size_t c = 0; c < kBlameComponents; ++c) {
    sum += b.component_ns[c];
    fraction_sum += b.fraction(static_cast<BlameComponent>(c));
  }
  EXPECT_EQ(sum, b.total_ns);
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
  // Per-group partitions are exact too.
  for (const BlameGroup& g : b.groups) {
    std::int64_t gsum = 0;
    for (std::size_t c = 0; c < kBlameComponents; ++c) gsum += g.ns[c];
    EXPECT_EQ(gsum, g.total);
  }
}

TEST(ProfilePath, FoldedWeightsSumToBlameTotal) {
  const StreamResult r = run_stream(traced_stream(45));
  const BlameBreakdown& b = r.trace->blame;
  ASSERT_GT(b.complete, 0);
  const std::string folded = blame_to_collapsed(b);
  // The folded stacks are the blame partition: every attributed
  // nanosecond lands in exactly one frame.
  EXPECT_EQ(folded_weight(folded), b.total_ns);
  // The vhost turn and the guest's interrupt service appear as blame
  // components.
  EXPECT_NE(folded.find("sim;backend_service;vm0:q"), std::string::npos);
  EXPECT_NE(folded.find("sim;guest_service;vm0:q"), std::string::npos);
}

}  // namespace
}  // namespace es2
