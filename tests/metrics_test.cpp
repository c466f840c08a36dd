// Metrics subsystem tests: registry identity and lookup, same-seed
// identity of snapshots, the process allocation probes, histogram edge
// cases, the top-deltas readout, and the bench-report schema's
// regression-gate logic.
//
// This binary links es2_alloc_hook, so the process.allocs probes measure
// real global operator new traffic.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/testbed.h"
#include "metrics/alloc_metrics.h"
#include "metrics/bench_schema.h"
#include "metrics/export.h"
#include "metrics/metrics.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// Registry: identity, labels, lookup
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CanonicalKeySortsLabels) {
  EXPECT_EQ(metric_key("vm.exits", {}), "vm.exits");
  EXPECT_EQ(metric_key("vm.exits", {{"cause", "hlt"}}), "vm.exits{cause=hlt}");
  // Label order in the argument does not matter: keys sort.
  EXPECT_EQ(metric_key("x", {{"b", "2"}, {"a", "1"}}), "x{a=1,b=2}");
  EXPECT_EQ(metric_key("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
}

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("recovery.mttr_ns", {{"mode", "wedge"}});
  Histogram& b = reg.histogram("recovery.mttr_ns", {{"mode", "wedge"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  // Different labels make a different instrument.
  Histogram& c = reg.histogram("recovery.mttr_ns", {{"mode", "crash"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
  // Re-registering a probe key keeps its slot and replaces the closure.
  reg.probe("vm.exits", {{"cause", "io"}}, [] { return 1.0; });
  reg.probe("vm.exits", {{"cause", "io"}}, [] { return 2.0; });
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_DOUBLE_EQ(reg.value(2), 2.0);
}

TEST(MetricsRegistry, FindByCanonicalKey) {
  MetricsRegistry reg;
  reg.histogram("tcp.rtt_ns", {{"flow", "7"}}).record(3000);
  reg.probe("vq.depth", [] { return 12.0; });
  const MetricsRegistry::Instrument* rtt = reg.find("tcp.rtt_ns{flow=7}");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->kind, MetricKind::kHistogram);
  EXPECT_EQ(rtt->histogram->count(), 1);
  ASSERT_NE(reg.find("vq.depth"), nullptr);
  EXPECT_EQ(reg.find("vq.depth{core=0}"), nullptr);
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(MetricsRegistry, ProbeReadsThroughClosure) {
  MetricsRegistry reg;
  double level = 4.0;
  reg.probe("cfs.load", {{"core", "0"}}, [&level] { return level; });
  const MetricsRegistry::Instrument* p = reg.find("cfs.load{core=0}");
  ASSERT_NE(p, nullptr);
  std::size_t idx = reg.sorted_indices()[0];
  EXPECT_DOUBLE_EQ(reg.value(idx), 4.0);
  level = 9.0;
  EXPECT_DOUBLE_EQ(reg.value(idx), 9.0);
}

TEST(MetricsRegistry, SortedIndicesAreExportOrder) {
  MetricsRegistry reg;
  reg.probe("b.second", [] { return 0.0; });
  reg.histogram("a.first");
  reg.probe("c.third", [] { return 0.0; });
  const std::vector<std::size_t> order = reg.sorted_indices();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(reg.instrument(order[0]).key, "a.first");
  EXPECT_EQ(reg.instrument(order[1]).key, "b.second");
  EXPECT_EQ(reg.instrument(order[2]).key, "c.third");
}

// ---------------------------------------------------------------------------
// Snapshot determinism
// ---------------------------------------------------------------------------

/// Same seed => identical registry snapshots, from a full testbed run
/// (guest timers, vhost worker, CFS all live).
TEST(MetricsRegistry, SameSeedSnapshotsAreIdentical) {
  auto run_once = [](std::uint64_t seed) {
    TestbedOptions o;
    o.config = Es2Config::pi();
    o.seed = seed;
    Testbed tb(o);
    tb.start();
    tb.sim().run_for(msec(30));
    return snapshot(tb.metrics());
  };
  const std::vector<MetricSample> a = run_once(42);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == run_once(42));
  // A different seed must change the telemetry. The bare testbed is
  // seed-invariant (no traffic), so this leg drives a seeded stream
  // workload and compares its harvested snapshots.
  auto stream_samples = [](std::uint64_t seed) {
    StreamOptions o;
    o.config = Es2Config::pi();
    o.seed = seed;
    o.warmup = msec(10);
    o.measure = msec(50);
    return run_stream(o).metrics->samples;
  };
  EXPECT_FALSE(stream_samples(42) == stream_samples(43));
}

// ---------------------------------------------------------------------------
// Process allocation probes
// ---------------------------------------------------------------------------

TEST(AllocMetrics, RegistersProcessCounters) {
  MetricsRegistry reg;
  register_alloc_metrics(reg);
  const MetricsRegistry::Instrument* allocs = reg.find("process.allocs");
  ASSERT_NE(allocs, nullptr);
  EXPECT_EQ(allocs->kind, MetricKind::kProbe);
  const std::vector<MetricSample> before = snapshot(reg);
  // Force an allocation and require the probe to see it.
  std::vector<int>* sink = new std::vector<int>(100);
  const std::vector<MetricSample> after = snapshot(reg);
  delete sink;
  EXPECT_GT(after[1].value, before[1].value);       // process.allocs
  EXPECT_GT(after[0].value, before[0].value);       // process.alloc_bytes
  EXPECT_EQ(after[0].name, "process.alloc_bytes");  // sorted order
}

// ---------------------------------------------------------------------------
// Histogram edge cases
// ---------------------------------------------------------------------------

TEST(HistogramEdge, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramEdge, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  // Log-bucketed: quantiles land in the recorded value's bucket (~3%).
  EXPECT_NEAR(static_cast<double>(h.p50()), 1000.0, 1000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p99()), 1000.0, 1000.0 * 0.05);
}

TEST(HistogramEdge, MergeDisjointRanges) {
  Histogram low, high;
  for (int i = 0; i < 100; ++i) low.record(10);
  for (int i = 0; i < 100; ++i) high.record(1000000);
  low.merge(high);
  EXPECT_EQ(low.count(), 200);
  EXPECT_EQ(low.min(), 10);
  EXPECT_EQ(low.max(), 1000000);
  // Median sits at the low cluster, p99 at the high one.
  EXPECT_LE(low.p50(), 11);
  EXPECT_NEAR(static_cast<double>(low.p99()), 1e6, 1e6 * 0.05);
}

// ---------------------------------------------------------------------------
// Readout: top moving metrics
// ---------------------------------------------------------------------------

TEST(MetricsExport, TopDeltasNamesMovingMetrics) {
  Simulator sim(1);
  MetricsRegistry reg;
  std::int64_t busy = 3;
  reg.probe("busy.counter", [&busy] { return static_cast<double>(busy); });
  std::uint64_t level = 40;
  reg.probe("steady.probe", [&level] { return static_cast<double>(level); });
  PeriodicTimer work(sim, usec(100), [&busy] { busy += 7; });
  work.start();
  const std::vector<double> start = read_values(reg);
  sim.run_for(msec(20));
  // 200 ticks x 7 over 20 ms: the delta and its rate, not the total.
  EXPECT_EQ(top_metric_deltas(reg, start, msec(20), 5),
            "busy.counter +1400 (70.0k/s)");
  // An instrument registered after the start read counts from 0.
  reg.probe("late.counter", [] { return 2.0; });
  EXPECT_EQ(top_metric_deltas(reg, start, msec(20), 1),
            "busy.counter +1400 (70.0k/s)");
  EXPECT_NE(top_metric_deltas(reg, start, msec(20), 5).find("late.counter +2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Bench schema: gate logic
// ---------------------------------------------------------------------------

BenchReport sample_report() {
  BenchReport r("demo", true, 1);
  r.add("throughput", 100.0);
  r.add("exits", 5000.0);
  r.add_info("wall_seconds", 3.2);
  return r;
}

TEST(BenchSchema, OneUlpFails) {
  BenchReport current = sample_report();
  const double moved = std::nextafter(100.0, 200.0);
  current.add("throughput", moved);
  const BenchDiff d = diff_bench(sample_report(), current);
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.ok());
  const std::vector<std::string> failures = d.failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("demo/throughput"), std::string::npos);
  // Both values print in shortest round-trip form, so the ulp shows.
  EXPECT_NE(failures[0].find(json_number(moved)), std::string::npos)
      << failures[0];
}

TEST(BenchSchema, BeyondToleranceFailsAndNamesMetric) {
  BenchReport current = sample_report();
  current.add("throughput", 89.0);
  const BenchDiff d = diff_bench(sample_report(), current);
  EXPECT_FALSE(d.ok());
  const std::vector<std::string> failures = d.failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("throughput"), std::string::npos);
  // The failure carries the run's value and the baseline's.
  EXPECT_NE(failures[0].find("89 != baseline 100"), std::string::npos)
      << failures[0];
}

TEST(BenchSchema, InfoMetricsNeverGate) {
  BenchReport current = sample_report();
  current.add_info("wall_seconds", 96.0);  // 30x slower: reported, not failed
  EXPECT_TRUE(diff_bench(sample_report(), current).ok());
}

TEST(BenchSchema, MissingGatedMetricFails) {
  BenchReport current("demo", true, 1);
  current.add("throughput", 100.0);
  // "exits" absent from the run.
  const BenchDiff d = diff_bench(sample_report(), current);
  EXPECT_FALSE(d.ok());
  ASSERT_EQ(d.missing.size(), 1u);
  EXPECT_EQ(d.missing[0], "exits");
}

TEST(BenchSchema, StampMismatchIsIncomparableFailure) {
  BenchReport current("demo", false, 1);  // fast=false vs baseline fast=true
  current.add("throughput", 100.0);
  current.add("exits", 5000.0);
  const BenchDiff d = diff_bench(sample_report(), current);
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.ok());
  EXPECT_NE(d.incomparable_why.find("stamp"), std::string::npos);
}

TEST(BenchSchema, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/BENCH_demo.json";
  ASSERT_TRUE(sample_report().write_file(path));
  BenchReport reread;
  std::string error;
  ASSERT_TRUE(BenchReport::read_file(path, &reread, &error)) << error;
  EXPECT_EQ(reread.bench(), "demo");
  EXPECT_TRUE(reread.fast());
  EXPECT_EQ(reread.seed(), 1u);
  const BenchMetric* m = reread.find("throughput");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 100.0);
  // A reread report diffs clean against the original.
  EXPECT_TRUE(diff_bench(sample_report(), reread).ok());
}

TEST(BenchSchema, V1DocumentIsRejected) {
  // A v1 report carried a per-metric "tol"; reading it back would gate at
  // a default tolerance the schema no longer has, so it must not load.
  const std::string v1 = R"({"schema": "es2-bench-v1", "bench": "demo",
      "fast": true, "seed": 1,
      "metrics": {"throughput": {"value": 100, "tol": 0.05, "gate": true}}})";
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(v1, &doc, &error)) << error;
  BenchReport reread;
  EXPECT_FALSE(BenchReport::from_json(doc, &reread, &error));
  EXPECT_NE(error.find("es2-bench-v2"), std::string::npos) << error;
}

TEST(BenchSchema, SeedThatIsNotAnUnsignedIntegerIsRejected) {
  for (const char* seed : {"-1", "1e300", "1.5"}) {
    const std::string text = std::string(R"({"schema": "es2-bench-v2",
        "bench": "demo", "fast": true, "seed": )") +
                             seed + R"(, "metrics": {}})";
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &doc, &error)) << error;
    BenchReport reread;
    EXPECT_FALSE(BenchReport::from_json(doc, &reread, &error)) << seed;
    EXPECT_NE(error.find("seed"), std::string::npos) << error;
  }
}

TEST(BenchSchema, MalformedMetricEntryIsAParseError) {
  // Each of these once loaded silently (a bad value as a gated 0, a bad or
  // missing gate as gated), so a run with the row at 0 could pass against
  // it. Every one must fail and name the row.
  for (const char* entry :
       {R"(7)", R"({"value": "12", "gate": true})", R"({"gate": true})",
        R"({"value": 12, "gate": "yes"})", R"({"value": 12})"}) {
    const std::string text = std::string(R"({"schema": "es2-bench-v2",
        "bench": "demo", "fast": true, "seed": 1,
        "metrics": {"ok": {"value": 1, "gate": true}, "rows": )") +
                             entry + "}}";
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &doc, &error)) << error;
    BenchReport reread;
    EXPECT_FALSE(BenchReport::from_json(doc, &reread, &error)) << entry;
    EXPECT_NE(error.find("metric rows"), std::string::npos) << error;
  }
}

TEST(BenchSchema, SparklineRendersAndHandlesEdges) {
  EXPECT_EQ(sparkline({}), "");
  EXPECT_FALSE(sparkline({1, 2, 3, 4, 5}).empty());
  EXPECT_FALSE(sparkline({5, 5, 5}).empty());  // flat series
}

}  // namespace
}  // namespace es2
