// Unit tests for statistics primitives.
#include <gtest/gtest.h>

#include "stats/histogram.h"
#include "stats/meters.h"

namespace es2 {
namespace {

TEST(Histogram, EmptyBehaviour) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.summary(), "(empty)");
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.p50(), 42);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, QuantilesOfUniformRange) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record(i);
  // Log buckets bound relative error to ~1/32.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000.0, 5000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p90()), 9000.0, 9000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900.0, 9900.0 * 0.05);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10000);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(Histogram, RecordNWeights) {
  Histogram h;
  h.record_n(10, 99);
  h.record_n(1000000, 1);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.p50(), 10);
  EXPECT_GT(h.quantile(0.999), 900000);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.mean(), 505.0, 1.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.record(std::int64_t{1} << 40);  // ~18 minutes in ns
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.p50(), std::int64_t{1} << 39);
}

TEST(SpanAccumulator, TigPercent) {
  SpanAccumulator s;
  s.add(700, true);
  s.add(300, false);
  EXPECT_DOUBLE_EQ(s.tig_percent(), 70.0);
  EXPECT_EQ(s.guest_time(), 700);
  EXPECT_EQ(s.host_time(), 300);
}

TEST(SpanAccumulator, EmptyIsZero) {
  SpanAccumulator s;
  EXPECT_DOUBLE_EQ(s.tig_percent(), 0.0);
}

TEST(SpanAccumulator, IgnoresNonPositiveSpans) {
  SpanAccumulator s;
  s.add(0, true);
  s.add(-5, false);
  EXPECT_EQ(s.total(), 0);
}

}  // namespace
}  // namespace es2
