// Unit tests for src/base: RNG, strings, table, csv, units, the Ring
// FIFO and the id -> time correlation table.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "base/csv.h"
#include "base/id_time_table.h"
#include "base/ring.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/table.h"
#include "base/units.h"

namespace es2 {
namespace {

TEST(Units, CyclesToNs) {
  EXPECT_EQ(cycles_to_ns(0, 2.3), 0);
  EXPECT_EQ(cycles_to_ns(2300, 2.3), 1000);
  EXPECT_EQ(cycles_to_ns(1, 2.3), 1);  // floor of 1ns for nonzero work
  EXPECT_EQ(cycles_to_ns(-5, 2.3), 0);
}

TEST(Units, Conversions) {
  EXPECT_EQ(usec(3), 3000);
  EXPECT_EQ(msec(2), 2'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(mbps(125'000, kSecond), 1.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::stream(42, "alpha");
  Rng b = Rng::stream(42, "beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, BernoulliEdges) {
  Rng r(1);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng r(123);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalClampsNonNegative) {
  Rng r(55);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.normal(1.0, 3.0, /*nonneg=*/true), 0.0);
  }
}

TEST(Rng, StateRestoreResumesEveryNamedStream) {
  // Every stream label the model derives (checkpoint coverage): a stream
  // restored from state() must replay exactly the draws the original
  // would have produced, for each label and across draw types.
  const char* labels[] = {"fault",        "redirector", "memaslap",
                          "cfs",          "guest/vm0",  "vhost/vm0",
                          "vhost-worker/vhost-vm0"};
  for (const char* label : labels) {
    Rng rng = Rng::stream(42, label);
    // Burn a prefix so the saved state is mid-sequence, not the seed.
    for (int i = 0; i < 17; ++i) (void)rng.next_u64();
    const Rng::State saved = rng.state();

    std::vector<std::uint64_t> raw;
    std::vector<double> doubles;
    for (int i = 0; i < 32; ++i) raw.push_back(rng.next_u64());
    for (int i = 0; i < 8; ++i) doubles.push_back(rng.exponential(2.0));

    Rng restored(999);  // wrong seed on purpose; restore must overwrite it
    restored.restore(saved);
    for (std::uint64_t v : raw) {
      EXPECT_EQ(restored.next_u64(), v) << "label " << label;
    }
    for (double v : doubles) {
      EXPECT_EQ(restored.exponential(2.0), v) << "label " << label;
    }
  }
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(130840), "130,840");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Strings, RateStr) {
  EXPECT_EQ(rate_str(12.3), "12.3/s");
  EXPECT_EQ(rate_str(12345.0), "12.3k/s");
  EXPECT_EQ(rate_str(3.2e6), "3.20M/s");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Table, RendersAligned) {
  Table t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_rule();
  t.add_row({"b", "22,222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22,222"), std::string::npos);
  // Header + 2 rows + 4 rules = 7 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 7);
}

TEST(Csv, EscapesAndRenders) {
  CsvWriter w({"a", "b"});
  w.add_row({"1", "x,y"});
  w.add_row({"2", "he said \"hi\""});
  const std::string out = w.render();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, WritesFile) {
  CsvWriter w({"h"});
  w.add_row({"v"});
  const std::string path = ::testing::TempDir() + "/es2_csv_test/out.csv";
  EXPECT_TRUE(w.write_file(path));
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(Ring, BehavesLikeADequeUnderRandomFifoTraffic) {
  Ring<std::unique_ptr<int>> ring;
  std::deque<int> model;
  Rng rng = Rng::stream(3, "ring");
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.next_below(2) == 0 || model.empty()) {
      ring.push_back(std::make_unique<int>(next));
      model.push_back(next++);
    } else {
      ASSERT_EQ(*ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
  }
  std::size_t i = 0;
  for (const auto& v : ring) EXPECT_EQ(*v, model[i++]);
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, MoveTransfersTheElements) {
  Ring<int> a(4);
  for (int v = 0; v < 20; ++v) a.push_back(v);  // grows past the reserve
  for (int v = 0; v < 5; ++v) a.pop_front();
  Ring<int> b = std::move(a);
  EXPECT_TRUE(a.empty());  // moved-from rings are empty
  ASSERT_EQ(b.size(), 15u);
  EXPECT_EQ(b.front(), 5);
  EXPECT_EQ(b[14], 19);
}

// ---------------------------------------------------------------------------
// IdTimeTable
// ---------------------------------------------------------------------------

TEST(IdTimeTable, MatchesAMapUnderRandomPutAndTake) {
  IdTimeTable table;
  std::map<std::uint64_t, SimTime> model;
  Rng rng = Rng::stream(5, "id-table");
  for (int step = 0; step < 50000; ++step) {
    // A small id space forces long probe runs, collisions and overwrites.
    const std::uint64_t id = rng.next_below(300);
    if (rng.next_below(2) == 0) {
      const SimTime t = static_cast<SimTime>(rng.next_below(1000000));
      table.put(id, t);
      model[id] = t;
    } else {
      const auto got = table.take(id);
      const auto it = model.find(id);
      ASSERT_EQ(got.has_value(), it != model.end()) << "id " << id;
      if (got) {
        EXPECT_EQ(*got, it->second);
        model.erase(it);
      }
    }
    ASSERT_EQ(table.size(), model.size());
  }
}

/// Records the field sequence a snapshot writes.
struct FieldLog {
  std::vector<std::uint64_t> fields;
  void put_u32(std::uint32_t v) { fields.push_back(v); }
  void put_u64(std::uint64_t v) { fields.push_back(v); }
  void put_i64(std::int64_t v) { fields.push_back(static_cast<std::uint64_t>(v)); }
};

TEST(IdTimeTable, SnapshotWritesEntriesInIdOrder) {
  IdTimeTable table;
  for (std::uint64_t id : {42u, 7u, 1000u, 8u}) {
    table.put(id, static_cast<SimTime>(id * 10));
  }
  ASSERT_TRUE(table.take(8).has_value());
  FieldLog log;
  table.snapshot(log);
  EXPECT_EQ(log.fields,
            (std::vector<std::uint64_t>{3, 7, 70, 42, 420, 1000, 10000}));
}

}  // namespace
}  // namespace es2
