// Profile-layer tests: the critical-path blame analyzer on hand-crafted
// record sequences (exact partition, incomplete/coalesced journeys, the
// worst-journey ledger), the es2-blame-v1 exporter round-trip and diff,
// the zero-alloc scoped profiler (span aggregation, slice ring, scope
// tree, allocation guarantee via es2_alloc_hook), and — against real
// streams — the passivity contract: profiling a run must not change it.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "base/alloc_hook.h"
#include "harness/experiments.h"
#include "profile/blame.h"
#include "profile/blame_export.h"
#include "profile/prof_export.h"
#include "profile/profiler.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace es2 {
namespace {

// FNV-1a-32 of a thread name, mirroring the sched tracepoints' tag.
std::uint32_t tag(const std::string& name) {
  std::uint32_t h = 2166136261u;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  return h;
}

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
      rec(base + 250, TraceKind::kSchedIn, 0, tag("vhost-vm0")),
      rec(base + 400, TraceKind::kWorkerTurn, corr, 0),
      rec(base + 600, TraceKind::kIrqSuppressed, corr, 0),
      rec(base + 900, TraceKind::kMsiRaise, corr, 33, 0),
      rec(base + 1000, TraceKind::kSchedIn, 0, tag("vm0/vcpu0")),
      rec(base + 1200, TraceKind::kIrqDispatch, corr, 33, 0, 0),
      rec(base + 1600, TraceKind::kEoi, corr, 0, 0, 0),
  };
}

SimDuration ns_of(const BlameBreakdown& b, BlameComponent c) {
  return b.component_ns[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------------------
// Critical-path analyzer
// ---------------------------------------------------------------------------

TEST(BlameAnalyzer, AttributesEveryNanosecondExactly) {
  const BlameBreakdown b = analyze_blame(full_journey(7, 1000));
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
  const BlameBreakdown b = analyze_blame(records);
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
  const BlameBreakdown b = analyze_blame(records);
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
  const BlameBreakdown b = analyze_blame(records);
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
  const BlameBreakdown b = analyze_blame(records);
  ASSERT_EQ(b.worst.size(), 1u);
  EXPECT_EQ(b.worst[0].queue, 3);  // pair 1 -> flat RX queue index 3
  EXPECT_FALSE(b.worst[0].tx_origin);
  ASSERT_EQ(b.groups.size(), 1u);
  EXPECT_EQ(b.groups[0].queue, 3);
  EXPECT_EQ(b.groups[0].journeys, 1);
}

TEST(BlameAnalyzer, LedgerIsWorstFirstAndDeterministic) {
  // Three journeys, stretched guest service: totals 1600, 2600, 3600.
  std::vector<TraceRecord> records;
  for (int i = 0; i < 3; ++i) {
    std::vector<TraceRecord> j =
        full_journey(static_cast<std::uint64_t>(20 + i), 10000 * (i + 1));
    j.back().t += 1000 * i;  // push the EOI out
    records.insert(records.end(), j.begin(), j.end());
  }
  BlameOptions o;
  o.ledger_k = 0.0;  // threshold 0: every journey makes the ledger
  o.ledger_top_n = 2;
  const BlameBreakdown a = analyze_blame(records, o);
  ASSERT_EQ(a.worst.size(), 2u);
  EXPECT_EQ(a.worst[0].corr, 22u);
  EXPECT_EQ(a.worst[0].total(), 3600);
  EXPECT_EQ(a.worst[1].corr, 21u);

  // Same input -> identical ledger, including the rendered critical paths.
  const BlameBreakdown b = analyze_blame(records, o);
  ASSERT_EQ(b.worst.size(), a.worst.size());
  for (std::size_t i = 0; i < a.worst.size(); ++i) {
    EXPECT_EQ(blame_critical_path(a.worst[i]), blame_critical_path(b.worst[i]));
  }
}

TEST(BlameAnalyzer, GroupsAccumulatePerVmQueue) {
  std::vector<TraceRecord> records = full_journey(31, 1000);
  std::vector<TraceRecord> second = full_journey(32, 50000);
  records.insert(records.end(), second.begin(), second.end());
  const BlameBreakdown b = analyze_blame(records);
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
  const BlameBreakdown b = analyze_blame(full_journey(7, 1000));
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

TEST(BlameExport, MarkdownCarriesTheBudgetTable) {
  const std::string md =
      render_blame_markdown(blame_summary(analyze_blame(full_journey(7, 1000))));
  EXPECT_NE(md.find("guest_service"), std::string::npos);
  EXPECT_NE(md.find("| **total** |"), std::string::npos);
}

TEST(BlameExport, DiffNamesTheRegressedComponent) {
  const BlameSummary a = blame_summary(analyze_blame(full_journey(7, 1000)));
  // Same journey with the suppression window stretched by 600ns: its
  // share grows at everyone else's expense.
  std::vector<TraceRecord> slow = full_journey(7, 1000);
  for (TraceRecord& r : slow) {
    if (r.t >= 1900) r.t += 600;  // push msi and everything after
  }
  const BlameSummary b = blame_summary(analyze_blame(slow));
  const BlameDiff d = diff_blame(a, b);
  EXPECT_EQ(d.regressed, "suppression");
  EXPECT_GT(d.regressed_delta, 0.0);
  EXPECT_NE(render_blame_diff_markdown(d).find("suppression"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Scoped profiler
// ---------------------------------------------------------------------------

TEST(Profiler, SpansAggregatePerComponentKey) {
  Profiler p;
  p.span_begin(ProfComp::kVhostTurnTx, 0, 1000);
  p.span_end(ProfComp::kVhostTurnTx, 0, 1400);
  p.span_begin(ProfComp::kVhostTurnTx, 0, 2000);
  p.span_end(ProfComp::kVhostTurnTx, 0, 2100);
  p.span_begin(ProfComp::kGuestNapi, 3, 1500);
  p.span_end(ProfComp::kGuestNapi, 3, 1800);
  const ProfileData d = p.data();
  ASSERT_EQ(d.spans.size(), 2u);
  EXPECT_EQ(d.spans[0].comp, ProfComp::kVhostTurnTx);
  EXPECT_EQ(d.spans[0].count, 2);
  EXPECT_EQ(d.spans[0].sim_ns, 500);
  EXPECT_EQ(d.spans[1].comp, ProfComp::kGuestNapi);
  EXPECT_EQ(d.spans[1].key, 3);
  EXPECT_EQ(d.spans[1].sim_ns, 300);
  EXPECT_EQ(d.slices_total, 3u);
  EXPECT_EQ(d.dropped, 0u);
}

TEST(Profiler, SliceRingKeepsTheNewest) {
  ProfileOptions o;
  o.slice_capacity = 4;
  Profiler p(o);
  for (int i = 0; i < 6; ++i) {
    p.span_begin(ProfComp::kVhostMsi, 0, i * 100);
    p.span_end(ProfComp::kVhostMsi, 0, i * 100 + 50);
  }
  const ProfileData d = p.data();
  EXPECT_EQ(d.slices_total, 6u);
  ASSERT_EQ(d.slices.size(), 4u);
  EXPECT_EQ(d.slices.front().begin, 200);  // oldest surviving
  EXPECT_EQ(d.slices.back().begin, 500);
}

TEST(Profiler, UnbalancedBeginCountsAsDropped) {
  Profiler p;
  p.span_begin(ProfComp::kVhostTurnRx, 1, 100);
  p.span_begin(ProfComp::kVhostTurnRx, 1, 200);  // slot already open
  p.span_end(ProfComp::kVhostTurnRx, 1, 300);
  const ProfileData d = p.data();
  EXPECT_EQ(d.dropped, 1u);
  ASSERT_EQ(d.spans.size(), 1u);
  EXPECT_EQ(d.spans[0].count, 1);
  EXPECT_EQ(d.spans[0].sim_ns, 200);  // 300 - the first (kept) begin
}

TEST(Profiler, ScopeTreeNestsAndSurvivesOverflow) {
  Profiler p;
  {
    Profiler::Scope outer(&p, ProfComp::kVcpuExit);
    Profiler::Scope inner(&p, ProfComp::kCfsResched);
  }
  {
    Profiler::Scope outer(&p, ProfComp::kVcpuExit);
  }
  ProfileData d = p.data();
  ASSERT_EQ(d.nodes.size(), 2u);
  EXPECT_EQ(d.nodes[0].comp, ProfComp::kVcpuExit);
  EXPECT_EQ(d.nodes[0].parent, -1);
  EXPECT_EQ(d.nodes[0].calls, 2);
  EXPECT_EQ(d.nodes[1].comp, ProfComp::kCfsResched);
  EXPECT_EQ(d.nodes[1].parent, 0);
  EXPECT_EQ(d.nodes[1].calls, 1);

  // Pushing far past the depth budget must neither grow the stack nor
  // corrupt the tree — the excess is counted and popping unwinds cleanly.
  for (int i = 0; i < 100; ++i) p.push(ProfComp::kCfsResched);
  for (int i = 0; i < 100; ++i) p.pop();
  d = p.data();
  EXPECT_GT(d.dropped, 0u);
  Profiler::Scope again(&p, ProfComp::kVcpuExit);
}

TEST(Profiler, RecordPathsAllocateNothing) {
  Profiler p;
  // Warm both paths (first touch of a span slot / tree node).
  p.span_begin(ProfComp::kVhostTurnTx, 2, 0);
  p.span_end(ProfComp::kVhostTurnTx, 2, 10);
  p.push(ProfComp::kVcpuExit);
  p.push(ProfComp::kCfsResched);
  p.pop();
  p.pop();

  test::AllocationCounter allocs;
  for (int i = 0; i < 10000; ++i) {
    p.span_begin(ProfComp::kVhostTurnTx, 2, i * 100);
    p.span_end(ProfComp::kVhostTurnTx, 2, i * 100 + 40);
    p.push(ProfComp::kVcpuExit);
    p.push(ProfComp::kCfsResched);
    p.pop();
    p.pop();
  }
  EXPECT_EQ(allocs.delta(), 0);
}

TEST(ProfExport, CollapsedStacksAreSortedAndDeterministic) {
  Profiler p;
  {
    Profiler::Scope outer(&p, ProfComp::kVcpuExit);
    Profiler::Scope inner(&p, ProfComp::kCfsResched);
  }
  p.span_begin(ProfComp::kVhostTurnTx, 0, 100);
  p.span_end(ProfComp::kVhostTurnTx, 0, 400);
  const ProfileData d = p.data();
  const std::string calls = prof_to_collapsed(d, CollapsedWeight::kCalls);
  EXPECT_EQ(calls, prof_to_collapsed(d, CollapsedWeight::kCalls));
  EXPECT_NE(calls.find("host;vcpu_exit;cfs_resched 1"), std::string::npos);
  EXPECT_NE(calls.find("sim;vhost_turn_tx"), std::string::npos);
  // Host-time weights exclude sim spans (host wall-time is measurement
  // noise; sim spans would pollute the flamegraph with zeros).
  const std::string host = prof_to_collapsed(d, CollapsedWeight::kHostNs);
  EXPECT_EQ(host.find("sim;"), std::string::npos);
  EXPECT_EQ(prof_to_json_text(d), prof_to_json_text(d));
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

TEST(ProfilePath, ProfilingIsPassive) {
  // The strong oracle: profiled and unprofiled same-seed runs must agree
  // on every headline number AND on the epoch state-hash series (the
  // bit-identity witness for the whole world).
  StreamOptions profiled = short_stream(41);
  profiled.profile.enabled = true;
  profiled.snapshot.hash_epochs = true;
  StreamOptions plain = short_stream(41);
  plain.snapshot.hash_epochs = true;

  const StreamResult with = run_stream(profiled);
  const StreamResult without = run_stream(plain);
  ASSERT_NE(with.profile, nullptr);
  EXPECT_EQ(without.profile, nullptr);
  EXPECT_DOUBLE_EQ(with.throughput_mbps, without.throughput_mbps);
  EXPECT_DOUBLE_EQ(with.packets_per_sec, without.packets_per_sec);
  EXPECT_DOUBLE_EQ(with.kicks_per_sec, without.kicks_per_sec);
  EXPECT_DOUBLE_EQ(with.exits.total, without.exits.total);
  ASSERT_NE(with.hashes, nullptr);
  ASSERT_NE(without.hashes, nullptr);
  EXPECT_EQ(with.hashes->to_json_text(), without.hashes->to_json_text());
}

TEST(ProfilePath, SameSeedProfileExportsAreByteIdentical) {
  StreamOptions o = short_stream(42);
  o.profile.enabled = true;
  const StreamResult a = run_stream(o);
  const StreamResult b = run_stream(o);
  ASSERT_NE(a.profile, nullptr);
  ASSERT_NE(b.profile, nullptr);
  ASSERT_FALSE(a.profile->spans.empty());
  EXPECT_EQ(prof_to_json_text(*a.profile), prof_to_json_text(*b.profile));
  EXPECT_EQ(prof_to_collapsed(*a.profile, CollapsedWeight::kSimNs),
            prof_to_collapsed(*b.profile, CollapsedWeight::kSimNs));
}

TEST(ProfilePath, SameSeedBlameExportsAreByteIdentical) {
  StreamOptions o = short_stream(43);
  o.trace.enabled = true;
  o.trace.capacity = std::size_t{1} << 17;
  const StreamResult a = run_stream(o);
  const StreamResult b = run_stream(o);
  const BlameBreakdown ba = blame_of(a.trace.get());
  const BlameBreakdown bb = blame_of(b.trace.get());
  ASSERT_GT(ba.complete, 0);
  EXPECT_EQ(blame_to_json_text(ba), blame_to_json_text(bb));
  ASSERT_EQ(ba.worst.size(), bb.worst.size());
  for (std::size_t i = 0; i < ba.worst.size(); ++i) {
    EXPECT_EQ(blame_critical_path(ba.worst[i]),
              blame_critical_path(bb.worst[i]));
  }
}

TEST(ProfilePath, BlameFractionsSumToTracedJourneyTotals) {
  StreamOptions o = short_stream(44);
  o.trace.enabled = true;
  o.trace.capacity = std::size_t{1} << 17;
  const StreamResult r = run_stream(o);
  const BlameBreakdown b = blame_of(r.trace.get());
  ASSERT_GT(b.complete, 0);
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

TEST(ProfilePath, ProfiledStreamRecordsVhostSpans) {
  StreamOptions o = short_stream(45);
  o.profile.enabled = true;
  const StreamResult r = run_stream(o);
  ASSERT_NE(r.profile, nullptr);
  bool saw_turn = false;
  bool saw_guest = false;
  for (const ProfSpanStat& s : r.profile->spans) {
    if (s.comp == ProfComp::kVhostTurnTx || s.comp == ProfComp::kVhostTurnRx) {
      saw_turn = true;
      EXPECT_GT(s.count, 0);
    }
    if (s.comp == ProfComp::kGuestIrqService) saw_guest = true;
  }
  EXPECT_TRUE(saw_turn);
  EXPECT_TRUE(saw_guest);
}

}  // namespace
}  // namespace es2
