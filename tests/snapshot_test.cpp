// Snapshot tests: the state hasher and the epoch-hash determinism oracle.
// The headline guarantees:
//
//   * a SnapshotWriter digest is FNV-1a over exactly the little-endian
//     bytes of the fields put, and counts them;
//   * two same-seed worlds driven through the same span produce identical
//     component digests and identical epoch-hash series.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/netperf.h"
#include "harness/experiments.h"
#include "harness/testbed.h"
#include "snapshot/snapshot.h"
#include "snapshot/state_hash.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// SnapshotWriter
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

TEST(SnapshotFormat, EveryPutHashesExactlyItsLittleEndianBytes) {
  SnapshotWriter w;
  EXPECT_EQ(w.hash(), kFnvOffset);
  w.put_u8(7);
  w.put_bool(true);
  w.put_bool(false);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0102030405060708ULL);
  w.put_i64(-2);
  w.put_f64(1.0);
  w.put_f64(-0.0);
  w.put_string("toy");
  w.put_string("");
  const unsigned char bytes[] = {
      0x07,                                            // u8
      0x01, 0x00,                                      // bool true, false
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // f64 -0.0
      0x03, 0x00, 0x00, 0x00, 't',  'o',  'y',         // "toy"
      0x00, 0x00, 0x00, 0x00};                         // ""
  EXPECT_EQ(w.byte_size(), sizeof(bytes));
  EXPECT_EQ(w.hash(), fnv1a(bytes, sizeof(bytes)));

  // Doubles hash by bit pattern: -0.0 == 0.0, but not as state.
  SnapshotWriter zero, neg_zero;
  zero.put_f64(0.0);
  neg_zero.put_f64(-0.0);
  EXPECT_NE(zero.hash(), neg_zero.hash());

  // The length prefix keeps string boundaries in the digest.
  SnapshotWriter ab, a_b;
  ab.put_string("ab");
  ab.put_string("");
  a_b.put_string("a");
  a_b.put_string("b");
  EXPECT_EQ(ab.byte_size(), a_b.byte_size());
  EXPECT_NE(ab.hash(), a_b.hash());

  // An Rng stream hashes its four raw state words, so a draw moves it.
  Rng rng = Rng::stream(99, "snapshot");
  SnapshotWriter before;
  snapshot_rng(before, rng);
  EXPECT_EQ(before.byte_size(), 32u);
  (void)rng.next_u64();
  SnapshotWriter after;
  snapshot_rng(after, rng);
  EXPECT_NE(before.hash(), after.hash());
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

  // One walk, one fresh writer per component: the same digests, and the
  // world digest folds them with the names.
  const std::vector<SnapshotWriter> walk = world.walk();
  ASSERT_EQ(walk.size(), 2u);
  EXPECT_EQ(walk[0].hash(), hashes[0]);
  EXPECT_EQ(walk[1].hash(), hashes[1]);
  EXPECT_EQ(walk[0].byte_size(), 37u);
  EXPECT_EQ(world.world_hash(), world_digest(world.names(), hashes));
  EXPECT_EQ(world.component_hashes(), hashes);
}

TEST(EpochHashLog, RecordsAndCapsEpochs) {
  ToyComponent a(3);
  WorldSnapshotter world;
  world.add("only", a);
  EpochHashLog log(world, SnapshotOptions(), /*seed=*/7);
  EXPECT_EQ(log.last_world_hash(), 0u);
  for (std::size_t i = 0; i <= kMaxEpochs; ++i)
    log.record(msec(10) * static_cast<SimTime>(i + 1));
  EXPECT_EQ(log.epochs(), kMaxEpochs);  // capped, prefix kept
  EXPECT_EQ(log.series().entries.front().t, msec(10));
  EXPECT_EQ(log.series().entries.back().t,
            msec(10) * static_cast<SimTime>(kMaxEpochs));
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

TEST(HashSeries, OutOfRangeIntegersAreAParseError) {
  const std::string good = tiny_series().to_json_text();
  const std::pair<const char*, const char*> edits[] = {
      {"\"seed\": 1", "\"seed\": -1"},
      {"\"epoch_ns\": 10000000", "\"epoch_ns\": 1e300"},
      {"\"t\": 10000000", "\"t\": 0.5"}};
  for (const auto& [from, to] : edits) {
    std::string text = good;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, std::string(from).size(), to);
    HashSeries back;
    std::string error;
    EXPECT_FALSE(HashSeries::parse(text, &back, &error)) << to;
    EXPECT_FALSE(error.empty()) << to;
  }
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
// returns its component digests.
std::vector<std::uint64_t> run_and_hash(std::uint64_t seed, SimDuration span) {
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
  return tb.snapshotter().component_hashes();
}

TEST(Determinism, SameSeedWorldsSerializeByteIdentically) {
  const std::vector<std::uint64_t> a = run_and_hash(1, msec(80));
  const std::vector<std::uint64_t> b = run_and_hash(1, msec(80));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run_and_hash(2, msec(80)));  // the seed must actually matter
  EXPECT_GE(a.size(), 10u);  // sim, cfs, vm, guest, vhost, ...
}

TEST(Determinism, SameSeedRunsRepeatTheirEpochHashes) {
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
  // Multi-queue devices hash every pair's rings, not just pair 0's:
  // mutating only a later pair's ring must move the backend's digest, and
  // only that one.
  TestbedOptions to;
  to.config = Es2Config::pi_h_r();
  to.vhost_params.num_queue_pairs = 4;
  Testbed tb(std::move(to));
  const std::vector<std::uint64_t> before = tb.snapshotter().component_hashes();
  // (TX: the frontend pre-posts every pair's RX ring to capacity at boot.)
  ASSERT_TRUE(tb.backend().tx_vq(2).add_avail({nullptr, 64}));
  const std::vector<std::uint64_t> after = tb.snapshotter().component_hashes();
  const std::vector<std::string> names = tb.snapshotter().names();
  ASSERT_EQ(after.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(before[i] != after[i], names[i] == "vhost/vm0") << names[i];
  }
}

TEST(Determinism, SameSeedMultiQueuePackedWorldsSerializeByteIdentically) {
  // The queue-pair determinism check at world scope: a packed 4-pair
  // world with two RSS-steered streams gives the same component digests
  // on every same-seed run.
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
    return tb.snapshotter().component_hashes();
  };
  const std::vector<std::uint64_t> a = run(1);
  EXPECT_EQ(a, run(1));
  EXPECT_NE(a, run(2));
  EXPECT_GE(a.size(), 10u);
}

/// Component names and hashed byte counts of a world, in walk order.
std::vector<std::pair<std::string, std::size_t>> section_sizes(
    const Testbed& tb) {
  const std::vector<std::string> names = tb.snapshotter().names();
  const std::vector<SnapshotWriter> walk = tb.snapshotter().walk();
  std::vector<std::pair<std::string, std::size_t>> out;
  for (std::size_t i = 0; i < walk.size(); ++i) {
    out.emplace_back(names[i], walk[i].byte_size());
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

TEST(Snapshot, MultiQueueFaultedWorldBytesArePinned) {
  // Exact digests of a 2-pair world with every per-queue mechanism armed:
  // lifecycle faults (wedges, ring faults, worker crashes) drive the
  // backend's self-check strikes and progress marks, the recovery ladder
  // and the TX watchdog drive the frontend's per-pair strike state, and
  // overload mitigation adds the per-pair ksoftirqd flags. Same-seed
  // comparisons cannot see a field that moves to another place in the
  // stream; these constants can. A change that reorders any per-queue
  // field, or alters what a queue does, moves them.
  TestbedOptions to;
  to.config = Es2Config::pi_h_r();
  to.seed = 1;
  to.vcpus_per_vm = 2;
  to.vhost_params.num_queue_pairs = 2;
  to.faults.desc_corrupt_period = msec(9);
  to.faults.avail_tear_period = msec(13);
  to.faults.handler_wedge_period = msec(11);
  to.faults.worker_crash_period = msec(17);
  to.faults.kick_loss = 0.05;
  to.guest_params.recovery_ladder = true;
  to.guest_params.tx_watchdog = true;
  to.guest_params.overload_mitigation = true;
  to.snapshot.hash_epochs = true;
  to.snapshot.epoch = msec(5);
  Testbed tb(std::move(to));
  // One VM-sending TCP stream per queue pair (the first flow from 100 up
  // that RSS steers to each pair).
  std::vector<std::unique_ptr<NetperfSender>> senders;
  std::vector<std::unique_ptr<PeerStreamReceiver>> receivers;
  for (int pair = 0; pair < 2; ++pair) {
    std::uint64_t flow = 100;
    while (tb.backend().steer_pair(Proto::kTcp, flow) != pair) ++flow;
    senders.push_back(std::make_unique<NetperfSender>(
        tb.guest(), tb.frontend(), flow, Proto::kTcp, 1024, pair));
    receivers.push_back(
        std::make_unique<PeerStreamReceiver>(tb.peer(), flow, Proto::kTcp));
    tb.guest().add_task(*senders.back());
    tb.snapshotter().add("app/netperf-tx" + std::to_string(pair),
                         *senders.back());
    tb.snapshotter().add("app/peer-rx" + std::to_string(pair),
                         *receivers.back());
  }
  tb.start();
  tb.sim().run_for(msec(120));
  ASSERT_NE(tb.recovery_log(), nullptr);
  EXPECT_GT(tb.recovery_log()->instances().size(), 0u);
  EXPECT_GT(tb.backend().tx_vq(1).total_used(), 0);
  ASSERT_NE(tb.hash_log(), nullptr);
  EXPECT_EQ(tb.snapshotter().world_hash(), 0xa9f3af2ac0f8427bULL);
  EXPECT_EQ(tb.hash_log()->last_world_hash(), 0xee3637f2e644abaeULL);
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

}  // namespace
}  // namespace es2
