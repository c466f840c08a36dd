// Snapshot / restore / resume tests: es2-snap-v2 byte stability, the
// epoch-hash determinism oracle, sweep checkpoints, and self-healing
// resume. The headline guarantees:
//
//   * serialize -> load round-trips byte-exactly, and corruption in any
//     region (magic, body, tail) is detected, never silently accepted;
//   * two same-seed worlds driven through the same span serialize to
//     byte-identical images and identical epoch-hash series;
//   * a sweep resumed from checkpoints reproduces the uninterrupted
//     sweep's reports byte-for-byte, replaying finished cells and
//     re-running failed ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "apps/netperf.h"
#include "harness/checkpoint.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "harness/testbed.h"
#include "metrics/metrics.h"
#include "snapshot/snapshot.h"
#include "snapshot/state_hash.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// SnapshotWriter / SnapshotReader
// ---------------------------------------------------------------------------

class ToyComponent final : public Snapshottable {
 public:
  explicit ToyComponent(std::uint64_t salt) : salt_(salt) {}
  void snapshot_state(SnapshotWriter& w) const override {
    w.put_u8(7);
    w.put_bool(true);
    w.put_u32(0xDEADBEEF);
    w.put_u64(salt_);
    w.put_i64(-42);
    w.put_f64(3.140625);
    w.put_string("toy");
  }

 private:
  std::uint64_t salt_;
};

TEST(SnapshotFormat, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.begin_section("alpha");
  ToyComponent(11).snapshot_state(w);
  w.begin_section("beta");
  w.put_string("");
  w.put_f64(-0.0);
  w.put_u64(~0ull);

  const std::string image = w.serialize();
  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.load(image, &error)) << error;
  ASSERT_EQ(r.section_count(), 2u);
  EXPECT_EQ(r.section_name(0), "alpha");
  EXPECT_EQ(r.section_name(1), "beta");

  ASSERT_TRUE(r.seek("alpha"));
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 11u);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f64(), 3.140625);
  EXPECT_EQ(r.get_string(), "toy");
  EXPECT_TRUE(r.ok());

  ASSERT_TRUE(r.seek("beta"));
  EXPECT_EQ(r.get_string(), "");
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // -0.0 bit pattern preserved
  EXPECT_EQ(r.get_u64(), ~0ull);
  EXPECT_FALSE(r.seek("gamma"));
  EXPECT_TRUE(r.seek("alpha"));  // re-seek rewinds

  // Writer and reader agree on both digests.
  EXPECT_EQ(r.world_hash(), w.world_hash());
  EXPECT_EQ(r.section_hash(0), w.section_hash(0));
  EXPECT_EQ(r.section_hash(1), w.section_hash(1));
}

TEST(SnapshotFormat, SerializeIsDeterministic) {
  auto build = [] {
    SnapshotWriter w;
    w.begin_section("a");
    ToyComponent(1).snapshot_state(w);
    w.begin_section("b");
    ToyComponent(2).snapshot_state(w);
    return w.serialize();
  };
  EXPECT_EQ(build(), build());
}

TEST(SnapshotFormat, RejectsCorruption) {
  SnapshotWriter w;
  w.begin_section("alpha");
  ToyComponent(5).snapshot_state(w);
  const std::string image = w.serialize();
  std::string error;

  SnapshotReader r;
  EXPECT_FALSE(r.load("short", &error));
  EXPECT_EQ(error, "truncated: shorter than header + checksum");

  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_FALSE(r.load(bad_magic, &error));
  EXPECT_EQ(error, "bad magic: not an es2-snap file");

  std::string flipped = image;
  flipped[image.size() / 2] =
      static_cast<char>(flipped[image.size() / 2] ^ 0x40);
  EXPECT_FALSE(r.load(flipped, &error));
  EXPECT_EQ(error, "checksum mismatch: snapshot corrupted");

  std::string truncated = image.substr(0, image.size() - 9);
  truncated += image.substr(image.size() - 8);  // keep a (stale) tail
  EXPECT_FALSE(r.load(truncated, &error));
  EXPECT_EQ(error, "checksum mismatch: snapshot corrupted");

  // Any other version — the retired v1 layout or a future one — must be
  // rejected even when the checksum is valid.
  ASSERT_EQ(SnapshotWriter::kVersion, 2u);
  for (const int version : {1, 3}) {
    std::string other = image;
    // Version u32 LE, low byte.
    other[sizeof(SnapshotWriter::kMagic)] = static_cast<char>(version);
    const std::size_t body = other.size() - 8;
    const std::uint64_t sum = fnv1a(other.data(), body);
    for (int i = 0; i < 8; ++i)
      other[body + static_cast<std::size_t>(i)] =
          static_cast<char>(sum >> (8 * i));
    EXPECT_FALSE(r.load(other, &error)) << "version " << version;
    EXPECT_EQ(error, "unsupported version");
  }
}

TEST(SnapshotFormat, ReaderOkTripsOnOverread) {
  SnapshotWriter w;
  w.begin_section("s");
  w.put_u32(1);
  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize(), nullptr));
  ASSERT_TRUE(r.seek("s"));
  EXPECT_EQ(r.get_u32(), 1u);
  EXPECT_TRUE(r.ok());
  (void)r.get_u64();  // past the end of the section
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotFormat, RngStateRoundTrip) {
  Rng rng = Rng::stream(99, "roundtrip");
  (void)rng.next_u64();
  SnapshotWriter w;
  w.begin_section("rng");
  snapshot_rng(w, rng);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(rng.next_u64());

  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize(), nullptr));
  ASSERT_TRUE(r.seek("rng"));
  Rng::State st{};
  for (auto& word : st.s) word = r.get_u64();
  Rng restored(1);
  restored.restore(st);
  for (std::uint64_t v : expect) EXPECT_EQ(restored.next_u64(), v);
}

// ---------------------------------------------------------------------------
// WorldSnapshotter / EpochHashLog / divergence
// ---------------------------------------------------------------------------

TEST(WorldSnapshotter, HashesComponentsInRegistrationOrder) {
  ToyComponent a(1), b(2);
  WorldSnapshotter world;
  world.add("first", a);
  world.add("second", b);
  EXPECT_EQ(world.size(), 2u);
  EXPECT_EQ(world.names(), (std::vector<std::string>{"first", "second"}));

  const auto hashes = world.component_hashes();
  ASSERT_EQ(hashes.size(), 2u);
  EXPECT_NE(hashes[0], hashes[1]);  // different salts -> different digests

  // Same states re-hashed give the same digests (scratch writer reuse).
  EXPECT_EQ(world.world_hash(), world.world_hash());
  EXPECT_EQ(world.serialize(), world.serialize());
}

TEST(EpochHashLog, RecordsAndCapsEpochs) {
  ToyComponent a(3);
  WorldSnapshotter world;
  world.add("only", a);
  SnapshotOptions opts;
  opts.max_epochs = 4;
  EpochHashLog log(world, opts, /*seed=*/7);
  EXPECT_EQ(log.last_world_hash(), 0u);
  for (int i = 0; i < 10; ++i) log.record(msec(10) * (i + 1));
  EXPECT_EQ(log.epochs(), 4u);  // capped, prefix kept
  EXPECT_EQ(log.series().entries.front().t, msec(10));
  EXPECT_EQ(log.last_world_hash(), world.world_hash());
  EXPECT_EQ(log.series().seed, 7u);
}

HashSeries tiny_series() {
  HashSeries s;
  s.seed = 1;
  s.epoch = msec(10);
  s.component_names = {"sim", "cfs"};
  for (int i = 0; i < 5; ++i) {
    EpochHash e;
    e.t = msec(10) * (i + 1);
    e.components = {100u + static_cast<std::uint64_t>(i),
                    200u + static_cast<std::uint64_t>(i)};
    e.world = e.components[0] ^ e.components[1];
    s.entries.push_back(e);
  }
  return s;
}

TEST(HashSeries, JsonRoundTrip) {
  const HashSeries s = tiny_series();
  HashSeries back;
  std::string error;
  ASSERT_TRUE(HashSeries::parse(s.to_json_text(), &back, &error)) << error;
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.epoch, s.epoch);
  EXPECT_EQ(back.component_names, s.component_names);
  ASSERT_EQ(back.entries.size(), s.entries.size());
  for (std::size_t i = 0; i < s.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].t, s.entries[i].t);
    EXPECT_EQ(back.entries[i].world, s.entries[i].world);
    EXPECT_EQ(back.entries[i].components, s.entries[i].components);
  }
  // Round-tripped series compares identical.
  EXPECT_EQ(find_divergence(s, back).epoch, -1);
}

TEST(HashSeries, BisectorNamesTheGuiltyComponent) {
  const HashSeries a = tiny_series();
  HashSeries b = a;
  b.entries[3].components[1] ^= 0x1;  // cfs splits at epoch 3
  b.entries[3].world ^= 0x1;

  const Divergence d = find_divergence(a, b);
  EXPECT_EQ(d.epoch, 3);
  EXPECT_EQ(d.t, a.entries[3].t);
  ASSERT_EQ(d.components.size(), 1u);
  EXPECT_EQ(d.components[0], "cfs");

  HashSeries other = a;
  other.component_names = {"sim", "vhost"};
  EXPECT_EQ(find_divergence(a, other).epoch, -2);
  HashSeries period = a;
  period.epoch = msec(20);
  EXPECT_EQ(find_divergence(a, period).epoch, -2);
}

// ---------------------------------------------------------------------------
// Whole-world determinism
// ---------------------------------------------------------------------------

// Builds the micro PI+H+R world with one TCP stream, runs `span`, and
// returns the serialized es2-snap-v2 image.
std::string run_and_serialize(std::uint64_t seed, SimDuration span) {
  TestbedOptions to;
  to.config = Es2Config::pi_h_r();
  to.seed = seed;
  Testbed tb(to);
  NetperfSender tx(tb.guest(), tb.frontend(), 100, Proto::kTcp, 1024, 0);
  tb.guest().add_task(tx);
  PeerStreamReceiver rx(tb.peer(), 100, Proto::kTcp);
  tb.snapshotter().add("app/netperf-tx0", tx);
  tb.snapshotter().add("app/peer-rx0", rx);
  tb.start();
  tb.sim().run_for(span);
  return tb.snapshotter().serialize();
}

TEST(Determinism, SameSeedWorldsSerializeByteIdentically) {
  const std::string a = run_and_serialize(1, msec(80));
  const std::string b = run_and_serialize(1, msec(80));
  EXPECT_EQ(a, b);
  const std::string c = run_and_serialize(2, msec(80));
  EXPECT_NE(a, c);  // the seed must actually matter

  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.load(a, &error)) << error;
  EXPECT_GE(r.section_count(), 10u);  // sim, cfs, vm, guest, vhost, ...
}

TEST(Determinism, ResumeEquivalenceAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    StreamOptions o;
    o.config = Es2Config::pi_h_r();
    o.seed = seed;
    o.warmup = msec(50);
    o.measure = msec(150);
    o.snapshot.hash_epochs = true;
    o.snapshot.epoch = msec(10);
    const StreamResult a = run_stream(o);
    const StreamResult b = run_stream(o);
    ASSERT_NE(a.hashes, nullptr);
    ASSERT_NE(b.hashes, nullptr);
    EXPECT_GT(a.hashes->entries.size(), 10u);

    const Divergence d = find_divergence(*a.hashes, *b.hashes);
    EXPECT_EQ(d.epoch, -1) << "seed " << seed << ": " << d.detail;
    EXPECT_EQ(a.hashes->to_json_text(), b.hashes->to_json_text());
    EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  }
}

TEST(Determinism, ExtraQueuePairRingsAreCaptured) {
  // Multi-queue devices serialize every pair's rings, not just pair 0's:
  // mutating only a later pair's ring must change the backend section
  // bytes.
  TestbedOptions to;
  to.config = Es2Config::pi_h_r();
  to.vhost_params.num_queue_pairs = 4;
  Testbed tb(std::move(to));
  SnapshotWriter w0;
  w0.begin_section("vhost");
  tb.backend().snapshot_state(w0);
  const std::string before = w0.serialize();
  // (TX: the frontend pre-posts every pair's RX ring to capacity at boot.)
  ASSERT_TRUE(tb.backend().tx_vq(2).add_avail({nullptr, 64}));
  SnapshotWriter w1;
  w1.begin_section("vhost");
  tb.backend().snapshot_state(w1);
  EXPECT_NE(before, w1.serialize());
}

TEST(Determinism, SameSeedMultiQueuePackedWorldsSerializeByteIdentically) {
  // The queue-pair round-trip at world scope: a packed 4-pair world with
  // two RSS-steered streams serializes to the same es2-snap-v2 image on
  // every same-seed run, and the image loads cleanly.
  auto run = [](std::uint64_t seed) {
    TestbedOptions to;
    to.config = Es2Config::pi_h_r();
    to.seed = seed;
    to.vhost_params.num_queue_pairs = 4;
    to.vhost_params.ring_layout = RingLayout::kPacked;
    Testbed tb(std::move(to));
    // Flows 100 and 104 steer to different RSS pairs (see the ring
    // conformance suite), so two pairs carry live traffic.
    NetperfSender tx0(tb.guest(), tb.frontend(), 100, Proto::kTcp, 1024, 0);
    NetperfSender tx1(tb.guest(), tb.frontend(), 104, Proto::kTcp, 1024, 0);
    tb.guest().add_task(tx0);
    tb.guest().add_task(tx1);
    PeerStreamReceiver rx0(tb.peer(), 100, Proto::kTcp);
    PeerStreamReceiver rx1(tb.peer(), 104, Proto::kTcp);
    tb.snapshotter().add("app/netperf-tx0", tx0);
    tb.snapshotter().add("app/netperf-tx1", tx1);
    tb.snapshotter().add("app/peer-rx0", rx0);
    tb.snapshotter().add("app/peer-rx1", rx1);
    tb.start();
    tb.sim().run_for(msec(80));
    return tb.snapshotter().serialize();
  };
  const std::string a = run(1);
  const std::string b = run(1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run(2));
  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.load(a, &error)) << error;
  EXPECT_GE(r.section_count(), 10u);
}

/// Section names and payload sizes of a world's image, in section order.
std::vector<std::pair<std::string, std::size_t>> section_sizes(
    const Testbed& tb) {
  SnapshotWriter w;
  tb.snapshotter().write(w);
  std::vector<std::pair<std::string, std::size_t>> out;
  for (std::size_t i = 0; i < w.sections().size(); ++i) {
    out.emplace_back(w.sections()[i].name, w.section_size(i));
  }
  return out;
}

TEST(Snapshot, SectionLayoutIndependentOfModes) {
  // One section per component, all of its state, every run: arming every
  // mode on the same topology adds only the sections of the components
  // that exist only when armed, and leaves every shared section's size
  // alone. Two sections differ by content, not layout: the guest section
  // lists the overload ladder's ksoftirqd task, and the CFS section lists
  // the polling vhost worker, which set_poll_mode makes runnable at t=0.
  TestbedOptions plain;
  plain.config = Es2Config::pi_h_r();
  plain.vcpus_per_vm = 2;
  plain.vhost_params.num_queue_pairs = 2;
  TestbedOptions armed = plain;
  armed.config.per_queue_affinity = true;
  armed.faults.desc_corrupt_period = sec(1000);  // lifecycle faults
  armed.guest_params.recovery_ladder = true;
  armed.guest_params.overload_mitigation = true;
  armed.vhost_params.ring_layout = RingLayout::kPacked;
  armed.poll_mode = PollMode::kAdaptive;
  const Testbed a(plain);
  const Testbed b(armed);
  const auto base = section_sizes(a);
  const auto modes = section_sizes(b);

  std::vector<std::string> base_names;
  for (const auto& [name, size] : base) base_names.push_back(name);
  std::vector<std::string> shared_names;
  std::vector<std::string> extra_names;
  for (const auto& [name, size] : modes) {
    (name == "fault" || name == "recovery" ? extra_names : shared_names)
        .push_back(name);
  }
  EXPECT_EQ(shared_names, base_names);
  EXPECT_EQ(extra_names, (std::vector<std::string>{"fault", "recovery"}));

  for (const auto& [name, size] : base) {
    if (name == "guest/vm0" || name == "cfs") continue;
    for (const auto& [armed_name, armed_size] : modes) {
      if (armed_name == name) {
        EXPECT_EQ(armed_size, size) << "section " << name;
      }
    }
  }
}

TEST(Determinism, EpochHashingIsPassive) {
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.seed = 1;
  o.warmup = msec(50);
  o.measure = msec(150);
  const StreamResult plain = run_stream(o);
  o.snapshot.hash_epochs = true;
  o.snapshot.epoch = msec(5);
  const StreamResult hashed = run_stream(o);
  // Hashing draws no RNG and schedules nothing the model observes:
  // the measured trajectory is unchanged.
  EXPECT_EQ(plain.throughput_mbps, hashed.throughput_mbps);
  EXPECT_EQ(plain.packets_per_sec, hashed.packets_per_sec);
  EXPECT_EQ(plain.kicks_per_sec, hashed.kicks_per_sec);
  EXPECT_EQ(plain.hashes, nullptr);
  ASSERT_NE(hashed.hashes, nullptr);
}

// ---------------------------------------------------------------------------
// Checkpoints and self-healing resume
// ---------------------------------------------------------------------------

TEST(Checkpoint, SanitizeIsFilesystemSafeAndCollisionFree) {
  const std::string a = CheckpointDir::sanitize("loss=0.1%/stack PI+H");
  for (char c : a) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-')
        << "unsafe char in " << a;
  }
  // Names that sanitize to the same stem stay distinct via the FNV suffix.
  EXPECT_NE(CheckpointDir::sanitize("a/b"), CheckpointDir::sanitize("a+b"));
  EXPECT_EQ(CheckpointDir::sanitize("x"), CheckpointDir::sanitize("x"));
}

TEST(Checkpoint, CellJsonRoundTrip) {
  CellCheckpoint cell;
  cell.report.name = "loss=1% PI+H";
  cell.report.status = ScenarioStatus::kNoProgress;
  cell.report.sim_now = msec(123);
  cell.report.events = 456789;
  cell.report.detail = "flat across 8 windows";
  cell.report.telemetry = "vhost.kicks +0";
  cell.report.artifact = "{\"goodput_mbps\":123.456}";
  cell.report.attempts = 3;

  CellCheckpoint back;
  std::string error;
  ASSERT_TRUE(CellCheckpoint::parse(cell.to_json_text(), &back, &error))
      << error;
  EXPECT_EQ(back.report.name, cell.report.name);
  EXPECT_EQ(back.report.status, cell.report.status);
  EXPECT_EQ(back.report.sim_now, cell.report.sim_now);
  EXPECT_EQ(back.report.events, cell.report.events);
  EXPECT_EQ(back.report.detail, cell.report.detail);
  EXPECT_EQ(back.report.telemetry, cell.report.telemetry);
  EXPECT_EQ(back.report.artifact, cell.report.artifact);
  EXPECT_EQ(back.report.attempts, cell.report.attempts);
  EXPECT_FALSE(back.report.resumed);

  EXPECT_FALSE(CellCheckpoint::parse("{}", &back, &error));
  EXPECT_FALSE(CellCheckpoint::parse("not json", &back, &error));
}

TEST(Checkpoint, StoreAndLoadDirectory) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "es2_ckpt_dir").string();
  std::filesystem::remove_all(dir);

  CheckpointDir store(dir);
  ASSERT_TRUE(store.enabled());
  CellCheckpoint cell;
  cell.report.name = "cell a";
  cell.report.artifact = "{\"v\":1}";
  std::string error;
  ASSERT_TRUE(store.store(cell, &error)) << error;
  cell.report.name = "cell b";
  cell.report.status = ScenarioStatus::kException;
  ASSERT_TRUE(store.store(cell, &error)) << error;

  CheckpointDir load(dir);
  EXPECT_EQ(load.load(), 2u);
  ASSERT_NE(load.find("cell a"), nullptr);
  ASSERT_NE(load.find("cell b"), nullptr);
  EXPECT_EQ(load.find("cell a")->report.artifact, "{\"v\":1}");
  EXPECT_EQ(load.find("cell b")->report.status, ScenarioStatus::kException);
  EXPECT_EQ(load.find("cell c"), nullptr);

  CheckpointDir disabled("");
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.load(), 0u);
  EXPECT_TRUE(disabled.store(cell, &error));  // trivially succeeds

  std::filesystem::remove_all(dir);
}

TEST(Runner, BoundedRetriesHealFlakyCellsAndAreCounted) {
  MetricsRegistry registry;
  RunnerOptions ro;
  ro.threads = 1;
  ro.max_attempts = 3;
  ro.registry = &registry;
  ExperimentRunner runner(ro);

  std::atomic<int> flaky_runs{0};
  runner.add("flaky", [&](const std::string& name) {
    ScenarioReport rep;
    rep.name = name;
    if (flaky_runs.fetch_add(1) < 2) {
      rep.status = ScenarioStatus::kNoProgress;
      rep.detail = "transient";
    }
    return rep;
  });
  runner.add("steady", [&](const std::string& name) {
    ScenarioReport rep;
    rep.name = name;
    return rep;
  });
  runner.add("hopeless", [&](const std::string& name) -> ScenarioReport {
    throw std::runtime_error("always dies: " + name);
  });
  runner.run_all();

  ASSERT_EQ(runner.reports().size(), 3u);
  EXPECT_TRUE(runner.reports()[0].ok());
  EXPECT_EQ(runner.reports()[0].attempts, 3);
  EXPECT_TRUE(runner.reports()[1].ok());
  EXPECT_EQ(runner.reports()[1].attempts, 1);
  EXPECT_EQ(runner.reports()[2].status, ScenarioStatus::kException);
  EXPECT_EQ(runner.reports()[2].attempts, 3);
  EXPECT_FALSE(runner.all_ok());
  EXPECT_EQ(runner.exit_code(), 1);

  // flaky burned 2 retries, hopeless burned 2: counter and accessor agree.
  EXPECT_EQ(runner.retries(), 4);
  EXPECT_EQ(registry.counter("runner.retries").value(), 4);
}

TEST(Runner, ResumeReplaysFinishedCellsAndRerunsFailedOnes) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "es2_resume_dir").string();
  std::filesystem::remove_all(dir);

  std::atomic<int> good_runs{0};
  std::atomic<int> bad_runs{0};
  std::atomic<bool> healed{false};
  auto add_cells = [&](ExperimentRunner& r) {
    r.add("good", [&](const std::string& name) {
      good_runs.fetch_add(1);
      ScenarioReport rep;
      rep.name = name;
      rep.sim_now = msec(500);
      rep.events = 1234;
      rep.artifact = "{\"goodput\":42.5}";
      return rep;
    });
    r.add("bad", [&](const std::string& name) {
      bad_runs.fetch_add(1);
      ScenarioReport rep;
      rep.name = name;
      if (!healed.load()) {
        rep.status = ScenarioStatus::kNoProgress;
        rep.detail = "wedged";
      }
      return rep;
    });
  };

  {
    RunnerOptions ro;
    ro.threads = 1;
    ro.checkpoint_dir = dir;
    ExperimentRunner first(ro);
    add_cells(first);
    first.run_all();
    EXPECT_FALSE(first.all_ok());
    EXPECT_EQ(first.resumed_cells(), 0);
  }
  EXPECT_EQ(good_runs.load(), 1);
  EXPECT_EQ(bad_runs.load(), 1);

  // The environment is "fixed" before the resume; the failed cell must be
  // re-run (self-healing), the finished one replayed from disk.
  healed.store(true);
  RunnerOptions ro;
  ro.threads = 1;
  ro.checkpoint_dir = dir;
  ro.resume = true;
  ExperimentRunner second(ro);
  add_cells(second);
  second.run_all();

  EXPECT_EQ(good_runs.load(), 1);  // replayed, not re-run
  EXPECT_EQ(bad_runs.load(), 2);   // re-run and healed
  EXPECT_TRUE(second.all_ok());
  EXPECT_EQ(second.resumed_cells(), 1);

  ASSERT_EQ(second.reports().size(), 2u);
  const ScenarioReport& good = second.reports()[0];
  EXPECT_TRUE(good.resumed);
  EXPECT_EQ(good.sim_now, msec(500));
  EXPECT_EQ(good.events, 1234u);
  EXPECT_EQ(good.artifact, "{\"goodput\":42.5}");
  EXPECT_FALSE(second.reports()[1].resumed);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace es2
