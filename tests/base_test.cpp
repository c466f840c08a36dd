// Unit tests for src/base: RNG, strings, table, csv, units, the Ring
// FIFO and the id -> time correlation table.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/alloc_hook.h"
#include "base/csv.h"
#include "base/file.h"
#include "base/id_time_table.h"
#include "base/json.h"
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
// Whole-file I/O and JSON parsing
// ---------------------------------------------------------------------------

TEST(File, WriteReplacesTheFileAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "/es2_file_test.bin";
  const std::string bytes("a\0b\n", 4);
  ASSERT_TRUE(write_file(path, "an older, longer file"));
  ASSERT_TRUE(write_file(path, bytes));
  std::string back = "stale";
  ASSERT_TRUE(read_file(path, &back));
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(read_file(path + ".tmp", &back));
  EXPECT_TRUE(back.empty());

  const std::string missing = ::testing::TempDir() + "/es2_no_such_dir/f";
  EXPECT_FALSE(write_file(missing, bytes));
  EXPECT_FALSE(read_file(missing + ".tmp", &back));
}

TEST(Json, ParseRejectsMalformedInput) {
  Json doc;
  std::string error;
  EXPECT_TRUE(Json::parse("{}", &doc, &error)) << error;
  EXPECT_TRUE(Json::parse("{\"a\": [1, 2.5, \"x\", null, true]}", &doc, &error))
      << error;
  for (const char* bad : {"{", "{\"a\": }", "{} trailing", ""}) {
    EXPECT_FALSE(Json::parse(bad, &doc, &error)) << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, IntegerOrAcceptsOnlyWholeNumbersInRange) {
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(R"({"zero": 0, "neg": -1, "big": 1e300,
      "half": 2.5, "text": "7", "top": 18446744073709551615,
      "min": -9223372036854775808})",
                          &doc, &error))
      << error;
  std::uint64_t u = 99;
  EXPECT_TRUE(doc.integer_or<std::uint64_t>("absent", 5, &u));
  EXPECT_EQ(u, 5u);
  EXPECT_TRUE(doc.integer_or<std::uint64_t>("zero", 5, &u));
  EXPECT_EQ(u, 0u);
  EXPECT_FALSE(doc.integer_or<std::uint64_t>("neg", 0, &u));
  EXPECT_FALSE(doc.integer_or<std::uint64_t>("big", 0, &u));
  EXPECT_FALSE(doc.integer_or<std::uint64_t>("half", 0, &u));
  EXPECT_FALSE(doc.integer_or<std::uint64_t>("text", 0, &u));
  // 2^64 - 1 parses as the double 2^64: one past the range.
  EXPECT_FALSE(doc.integer_or<std::uint64_t>("top", 0, &u));
  std::int64_t i = 0;
  EXPECT_TRUE(doc.integer_or<std::int64_t>("neg", 0, &i));
  EXPECT_EQ(i, -1);
  EXPECT_TRUE(doc.integer_or<std::int64_t>("min", 0, &i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(doc.integer_or<std::int64_t>("big", 0, &i));
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

/// Records the field sequence a snapshot writes.
struct FieldLog {
  std::vector<std::uint64_t> fields;
  void put_u32(std::uint32_t v) { fields.push_back(v); }
  void put_u64(std::uint64_t v) { fields.push_back(v); }
  void put_i64(std::int64_t v) { fields.push_back(static_cast<std::uint64_t>(v)); }
};

using IdModel = std::map<std::uint64_t, SimTime>;

/// The table's snapshot must list exactly the model's entries, in its
/// (sorted) order.
void expect_same_entries(const IdTimeTable& table, const IdModel& model) {
  FieldLog log;
  table.snapshot(log);
  std::vector<std::uint64_t> want{model.size()};
  for (const auto& [id, at] : model) {
    want.push_back(id);
    want.push_back(static_cast<std::uint64_t>(at));
  }
  EXPECT_EQ(log.fields, want);
  EXPECT_EQ(table.size(), model.size());
}

/// Puts `id` in both the table and the model.
void put_both(IdTimeTable& table, IdModel& model, std::uint64_t id, SimTime at) {
  table.put(id, at);
  model[id] = at;
}

/// Takes `id` from both, checking that the table answers like the model.
void take_both(IdTimeTable& table, IdModel& model, std::uint64_t id) {
  const auto got = table.take(id);
  const auto it = model.find(id);
  ASSERT_EQ(got.has_value(), it != model.end()) << "id " << id;
  if (got) {
    EXPECT_EQ(*got, it->second) << "id " << id;
    model.erase(it);
  }
}

TEST(IdTimeTable, MatchesAMapUnderRandomPutAndTake) {
  IdTimeTable table;
  IdModel model;
  Rng rng = Rng::stream(5, "id-table");
  for (int step = 0; step < 50000; ++step) {
    // Random ids in a small space: home-slot collisions, side-table probe
    // runs and overwrites.
    const std::uint64_t id = rng.next_below(300);
    if (rng.next_below(2) == 0) {
      put_both(table, model, id, static_cast<SimTime>(rng.next_below(1000000)));
    } else {
      take_both(table, model, id);
    }
    ASSERT_EQ(table.size(), model.size());
  }
}

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

TEST(IdTimeTable, MonotoneIdsTakenOutOfOrderMatchAMap) {
  // Ids are issued in order, as every load generator does, but answered in
  // random order; some stay outstanding for a long time, so the live span
  // grows past the table and stragglers share home slots with newer ids.
  IdTimeTable table;
  IdModel model;
  std::vector<std::uint64_t> live;
  Rng rng = Rng::stream(7, "id-table-monotone");
  std::uint64_t next = 1;
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t r = rng.next_below(8);
    if (r < 4 || live.empty()) {
      live.push_back(next);
      put_both(table, model, next++, static_cast<SimTime>(step));
    } else if (r < 7) {
      const std::size_t k = rng.next_below(live.size());
      take_both(table, model, live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      // A retry re-puts a live id; a late answer takes one already gone.
      const std::uint64_t id = 1 + rng.next_below(next - 1);
      if (model.count(id)) {
        put_both(table, model, id, static_cast<SimTime>(step));
      } else {
        take_both(table, model, id);
      }
    }
    ASSERT_EQ(table.size(), model.size());
    if (step % 5000 == 0) expect_same_entries(table, model);
  }
  expect_same_entries(table, model);
}

/// Four stragglers (ids 1..4) stay outstanding while `n` later ids come
/// and go eight at a time. The table then holds at most 12 entries in 32
/// slots, so every straggler's home slot is taken by newer ids again and
/// again and the stragglers live in the side table. With a model, every
/// call is checked against it; without one, only the table is touched.
void run_stragglers(IdTimeTable& table, IdModel* model, std::uint64_t n) {
  auto put = [&](std::uint64_t id) {
    const auto at = static_cast<SimTime>(id * 10);
    model ? put_both(table, *model, id, at) : table.put(id, at);
  };
  auto take = [&](std::uint64_t id) {
    model ? take_both(table, *model, id) : void(table.take(id));
  };
  for (std::uint64_t id = 1; id <= 4; ++id) put(id);
  for (std::uint64_t id = 5; id < 5 + n; ++id) {
    put(id);
    if (id >= 12) take(id - 7);
  }
}

TEST(IdTimeTable, StragglersOlderThanTheSpanMoveToTheSideTable) {
  // Up to id 32 no two live ids share a home slot.
  test::AllocationCounter allocs;
  IdTimeTable short_run;
  run_stragglers(short_run, nullptr, 28);
  const std::int64_t main_allocs = allocs.delta();
  // The long run allocates one array more: the side table's 16 slots.
  allocs.reset();
  IdTimeTable table;
  run_stragglers(table, nullptr, 10000);
  EXPECT_EQ(allocs.delta(), main_allocs + 1);
  EXPECT_EQ(table.size(), 11u);  // the stragglers and ids 9998..10004
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(table.take(id), std::optional<SimTime>(static_cast<SimTime>(id * 10)));
  }

  // The same run checked call by call against a map.
  IdTimeTable checked;
  IdModel model;
  run_stragglers(checked, &model, 10000);
  expect_same_entries(checked, model);
}

TEST(IdTimeTable, AbsentIdsAreFoundInNeitherTable) {
  IdTimeTable table;
  EXPECT_FALSE(table.take(1).has_value());  // empty table
  IdModel model;
  run_stragglers(table, &model, 1000);  // live: 1..4 and 998..1004
  const std::size_t size = table.size();
  // Never put, taken long ago, not yet issued, or reserved; 33 shares a
  // home slot with straggler 1, 1030 with the live id 998.
  for (std::uint64_t id : {0ull, 5ull, 33ull, 34ull, 965ull, 1005ull,
                           1030ull, 1ull << 40, ~0ull}) {
    EXPECT_FALSE(table.take(id).has_value()) << "id " << id;
  }
  EXPECT_EQ(table.size(), size);
  // Taken once, then absent: from the side table and from the main array.
  take_both(table, model, 2);
  take_both(table, model, 2);
  take_both(table, model, 1000);
  take_both(table, model, 1000);
  EXPECT_EQ(table.size(), size - 2);
  expect_same_entries(table, model);
}

TEST(IdTimeTable, GrowsWhileTheSideTableHoldsEntries) {
  IdTimeTable table;
  IdModel model;
  run_stragglers(table, &model, 1000);
  // A burst of 5000 new ids with no answers doubles the array nine times;
  // every straggler and burst id must survive each rebuild.
  for (std::uint64_t id = 2000; id < 7000; ++id) {
    put_both(table, model, id, static_cast<SimTime>(id));
  }
  expect_same_entries(table, model);
  // Take them all in a scrambled order.
  Rng rng = Rng::stream(3, "id-table-grow");
  std::vector<std::uint64_t> ids;
  for (const auto& entry : model) ids.push_back(entry.first);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
  for (std::uint64_t id : ids) take_both(table, model, id);
  EXPECT_EQ(table.size(), 0u);
  expect_same_entries(table, model);
}

TEST(IdTimeTable, SnapshotListsSideEntriesInIdOrder) {
  IdTimeTable table;
  IdModel model;
  run_stragglers(table, &model, 100);
  // Stragglers 1..4 sit in the side table, ids 98..104 in the main array;
  // a re-put straggler keeps its place in the sorted output.
  put_both(table, model, 3, 7);
  FieldLog log;
  table.snapshot(log);
  EXPECT_EQ(log.fields, (std::vector<std::uint64_t>{
                            11, 1, 10, 2, 20, 3, 7, 4, 40, 98, 980, 99, 990,
                            100, 1000, 101, 1010, 102, 1020, 103, 1030, 104,
                            1040}));
  expect_same_entries(table, model);
}

TEST(IdTimeTable, RePutOfAPresentIdNeitherGrowsNorAllocates) {
  IdTimeTable table;
  for (std::uint64_t id = 1; id <= 8; ++id) table.put(id, 1);  // 8 of 16 slots
  test::AllocationCounter allocs;
  table.put(5, 2);  // a ninth entry would grow the table; a re-put must not
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(allocs.delta(), 0);
  EXPECT_EQ(table.take(5), std::optional<SimTime>(2));

  // The same for an id that lives in the side table.
  IdTimeTable side;
  IdModel model;
  run_stragglers(side, &model, 100);
  const std::size_t size = side.size();
  allocs.reset();
  side.put(1, 99);
  EXPECT_EQ(side.size(), size);
  EXPECT_EQ(allocs.delta(), 0);
  EXPECT_EQ(side.take(1), std::optional<SimTime>(99));
}

TEST(IdTimeTable, CyclingWindowAllocatesNothingAfterWarmUp) {
  // A storm-sized window: 65,536 outstanding ids, each new put followed by
  // the take of the id one window older.
  constexpr std::uint64_t kWindow = 65536;
  IdTimeTable table;
  std::uint64_t id = 0;
  auto cycle = [&table, &id] {
    for (std::uint64_t i = 0; i < kWindow; ++i, ++id) {
      table.put(id, static_cast<SimTime>(id));
      if (id >= kWindow) {
        ASSERT_EQ(table.take(id - kWindow),
                  std::optional<SimTime>(static_cast<SimTime>(id - kWindow)));
      }
    }
  };
  cycle();
  cycle();  // warm-up: the window fills and the array reaches its size
  test::AllocationCounter allocs;
  cycle();
  cycle();
  EXPECT_EQ(allocs.delta(), 0);
  EXPECT_EQ(table.size(), kWindow);
}

}  // namespace
}  // namespace es2
