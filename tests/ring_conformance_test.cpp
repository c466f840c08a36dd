// Differential ring-conformance suite (the packed-ring proof burden).
//
// The virtio 1.1 packed layout replaces the split layout's free-running
// avail/used indices with a single descriptor ring plus wrap counters, and
// its event suppression compares (offset, wrap) positions instead of
// monotonic indices. The claim the dataplane rests on is that the two
// layouts are *observably equivalent*: any protocol-valid operation
// sequence produces identical transfer semantics, identical kick/interrupt
// decisions, and identical completion ordering.
//
// This file pins that claim four ways:
//
//  1. a differential interpreter drives a split and a packed ring through
//     the same seeded randomized op streams, comparing every observable
//     after every op, and shrinks any failing stream to a minimal repro;
//  2. fault injection: the packed-only wrap-tear fault and the shared
//     index/descriptor faults classify identically (and wrap tears are
//     invisible to the split layout, which has no wrap counters);
//  3. whole-system streams: same-seed netperf runs over split and packed
//     rings return bit-identical results, and each layout's epoch-hash
//     series is reproducible run-to-run;
//  4. the multi-queue + busy-poll dataplane built on top: RSS steering,
//     per-queue MSI isolation, and the exit-less / adaptive poll modes.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apic/vectors.h"
#include "apps/netperf.h"
#include "base/rng.h"
#include "fault/fault.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "harness/testbed.h"
#include "metrics/metrics.h"
#include "net/packet.h"
#include "snapshot/state_hash.h"
#include "virtio/device_status.h"
#include "virtio/virtqueue.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// Differential op-stream interpreter
// ---------------------------------------------------------------------------

constexpr int kRingCapacity = 8;

// The op vocabulary mirrors how the real frontend/backend drive a ring.
// Suppression side effects are part of the op semantics: a kick wakes the
// host, which disables notifications (poll mode); an interrupt schedules
// NAPI, which masks further interrupts. Keeping those reactions inside the
// interpreter confines the streams to the protocol-valid state space —
// exactly the space the equivalence claim is scoped to (see
// StaleEventPositionsAliasOnlyInThePackedLayout for what happens outside).
enum class OpKind : int {
  kGuestAdd,      // post a buffer; deliver the kick if the protocol asks
  kHostPop,       // host takes one posted buffer
  kHostComplete,  // host completes the oldest in-flight buffer
  kGuestReap,     // guest pops one completion
  kHostSleep,     // host re-arms notifications (sleep edge, with re-check)
  kGuestNapiDone, // guest re-arms interrupts (NAPI exit, with re-check)
  kReset,         // device reset (status write 0 analogue)
};

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kGuestAdd: return "add";
    case OpKind::kHostPop: return "pop";
    case OpKind::kHostComplete: return "complete";
    case OpKind::kGuestReap: return "reap";
    case OpKind::kHostSleep: return "sleep";
    case OpKind::kGuestNapiDone: return "napi_done";
    case OpKind::kReset: return "reset";
  }
  return "?";
}

struct Op {
  OpKind kind = OpKind::kGuestAdd;
  std::uint64_t flow = 0;
  Bytes len = 0;
};

std::vector<Op> generate_ops(std::uint64_t seed, int count) {
  Rng rng = Rng::stream(seed, "ring-conformance");
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Op op;
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 30) {
      op.kind = OpKind::kGuestAdd;
    } else if (roll < 52) {
      op.kind = OpKind::kHostPop;
    } else if (roll < 74) {
      op.kind = OpKind::kHostComplete;
    } else if (roll < 88) {
      op.kind = OpKind::kGuestReap;
    } else if (roll < 93) {
      op.kind = OpKind::kHostSleep;
    } else if (roll < 98) {
      op.kind = OpKind::kGuestNapiDone;
    } else {
      op.kind = OpKind::kReset;
    }
    op.flow = rng.next_below(8);
    op.len = static_cast<Bytes>(64 + 10 * rng.next_below(32));
    ops.push_back(op);
  }
  return ops;
}

std::string entry_obs(const std::optional<Virtqueue::Entry>& e) {
  if (!e.has_value()) return " none";
  const std::uint64_t flow = e->packet != nullptr ? e->packet->flow : 0;
  return " flow=" + std::to_string(flow) + " len=" + std::to_string(e->len);
}

/// One ring plus the host's in-flight descriptor list, with an `apply`
/// that returns every observable the op exposed as a comparable string.
class RingMachine {
 public:
  explicit RingMachine(RingLayout layout)
      : vq_("conf", kRingCapacity, layout) {}

  std::string apply(const Op& op) {
    std::string obs = op_name(op.kind);
    switch (op.kind) {
      case OpKind::kGuestAdd: {
        Packet p;
        p.proto = Proto::kUdp;
        p.flow = op.flow;
        p.wire_size = op.len;
        p.payload = op.len;
        const bool ok = vq_.add_avail({make_packet(p), op.len});
        bool kick = false;
        if (ok && vq_.kick_needed()) {
          kick = true;
          vq_.disable_notifications();  // the kick woke the host: poll mode
        }
        obs += " ok=" + std::to_string(ok) + " kick=" + std::to_string(kick);
        break;
      }
      case OpKind::kHostPop: {
        std::optional<Virtqueue::Entry> e = vq_.pop_avail();
        obs += entry_obs(e);
        if (e.has_value()) in_flight_.push_back(std::move(*e));
        break;
      }
      case OpKind::kHostComplete: {
        if (in_flight_.empty()) {
          obs += " noop";
          break;
        }
        Virtqueue::Entry e = std::move(in_flight_.front());
        in_flight_.pop_front();
        vq_.push_used(std::move(e));
        bool irq = false;
        if (vq_.interrupt_needed()) {
          irq = true;
          vq_.disable_interrupts();  // hardirq schedules NAPI: masked
        }
        obs += " irq=" + std::to_string(irq);
        break;
      }
      case OpKind::kGuestReap: {
        obs += entry_obs(vq_.pop_used());
        break;
      }
      case OpKind::kHostSleep: {
        const bool race = vq_.enable_notifications();
        if (race) vq_.disable_notifications();  // re-check found work
        obs += " race=" + std::to_string(race);
        break;
      }
      case OpKind::kGuestNapiDone: {
        vq_.enable_interrupts();
        const bool race = vq_.used_count() > 0;
        if (race) vq_.disable_interrupts();  // completions raced: re-poll
        obs += " race=" + std::to_string(race);
        break;
      }
      case OpKind::kReset: {
        vq_.reset();
        in_flight_.clear();
        obs += " epoch=" + std::to_string(vq_.reset_epoch());
        break;
      }
    }
    obs += " | free=" + std::to_string(vq_.free_slots()) +
           " avail=" + std::to_string(vq_.avail_count()) +
           " used=" + std::to_string(vq_.used_count()) +
           " inflight=" + std::to_string(vq_.in_flight()) +
           " added=" + std::to_string(vq_.total_added()) +
           " done=" + std::to_string(vq_.total_used()) +
           " notif=" + std::to_string(vq_.notifications_enabled()) +
           " irqs=" + std::to_string(vq_.interrupts_enabled()) +
           " healthy=" +
           std::to_string(vq_.check_integrity() == RingFault::kNone);
    return obs;
  }

 private:
  Virtqueue vq_;
  std::deque<Virtqueue::Entry> in_flight_;
};

struct DiffResult {
  int first_divergence = -1;  // -1: fully conformant
  std::string split_obs;
  std::string packed_obs;
};

DiffResult run_differential(const std::vector<Op>& ops) {
  RingMachine split(RingLayout::kSplit);
  RingMachine packed(RingLayout::kPacked);
  DiffResult r;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string a = split.apply(ops[i]);
    const std::string b = packed.apply(ops[i]);
    if (a != b) {
      r.first_divergence = static_cast<int>(i);
      r.split_obs = a;
      r.packed_obs = b;
      return r;
    }
  }
  return r;
}

/// Greedy chunk-removal shrinking: delete the largest spans that keep the
/// divergence alive, halving the chunk size down to single ops.
std::vector<Op> shrink_divergence(std::vector<Op> ops) {
  for (std::size_t chunk = std::max<std::size_t>(ops.size() / 2, 1);;
       chunk /= 2) {
    bool removed = true;
    while (removed) {
      removed = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<Op> candidate;
        candidate.reserve(ops.size() - chunk);
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (run_differential(candidate).first_divergence >= 0) {
          ops = std::move(candidate);
          removed = true;
        } else {
          start += chunk;
        }
      }
    }
    if (chunk == 1) break;
  }
  return ops;
}

class RingConformance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingConformance, SplitAndPackedAgreeOnSeededOpStreams) {
  const std::vector<Op> ops = generate_ops(GetParam(), 400);
  const DiffResult r = run_differential(ops);
  if (r.first_divergence < 0) return;
  const std::vector<Op> minimal = shrink_divergence(ops);
  const DiffResult m = run_differential(minimal);
  std::string repro;
  for (const Op& op : minimal) {
    repro += std::string("  {") + op_name(op.kind) +
             ", flow=" + std::to_string(op.flow) +
             ", len=" + std::to_string(op.len) + "}\n";
  }
  FAIL() << "split/packed divergence (seed " << GetParam() << ") at op "
         << m.first_divergence << ":\n  split:  " << m.split_obs
         << "\n  packed: " << m.packed_obs << "\nminimal repro ("
         << minimal.size() << " ops):\n"
         << repro;
}

INSTANTIATE_TEST_SUITE_P(SeededStreams, RingConformance,
                         ::testing::Range<std::uint64_t>(1, 25));

// The equivalence is scoped to protocol-valid streams: an event position
// left stale for a full wrap cycle aliases in the packed layout (positions
// repeat mod 2*capacity) where the split layout's monotonic indices never
// do. Real drivers keep the event fresh — the interpreter above services
// every kick — but the boundary itself is worth pinning: it documents why
// the conformance harness models the host/guest reactions.
TEST(RingConformanceBoundary, StaleEventPositionsAliasOnlyInThePackedLayout) {
  int split_kicks = 0;
  int packed_kicks = 0;
  for (const RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
    Virtqueue vq("stale", kRingCapacity, layout);
    int kicks = 0;
    // Cycle one descriptor at a time with the host never re-arming: the
    // event position stays at 0 while the ring wraps twice.
    for (int i = 0; i < 2 * kRingCapacity + 1; ++i) {
      ASSERT_TRUE(vq.add_avail({nullptr, 64}));
      if (vq.kick_needed()) ++kicks;
      auto e = vq.pop_avail();
      ASSERT_TRUE(e.has_value());
      vq.push_used(*e);
      ASSERT_TRUE(vq.pop_used().has_value());
    }
    (layout == RingLayout::kSplit ? split_kicks : packed_kicks) = kicks;
  }
  EXPECT_EQ(split_kicks, 1);   // only the first add crosses the event
  EXPECT_EQ(packed_kicks, 2);  // ...plus its alias one wrap cycle later
}

// ---------------------------------------------------------------------------
// Suppression protocol, deterministic cases
// ---------------------------------------------------------------------------

TEST(Suppression, FirstAddAfterRearmKicksExactlyOnceOnBothLayouts) {
  for (const RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
    SCOPED_TRACE(layout == RingLayout::kSplit ? "split" : "packed");
    Virtqueue vq("tx", kRingCapacity, layout);
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    EXPECT_TRUE(vq.kick_needed());
    vq.disable_notifications();  // host woke up and polls
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    EXPECT_FALSE(vq.kick_needed());
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    EXPECT_FALSE(vq.kick_needed());
    // Host drains everything and goes back to sleep.
    while (auto e = vq.pop_avail()) vq.push_used(*e);
    while (vq.pop_used().has_value()) {
    }
    EXPECT_FALSE(vq.enable_notifications());
    // The next add crosses the freshly-armed event on both layouts.
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    EXPECT_TRUE(vq.kick_needed());
  }
}

TEST(Suppression, InterruptRearmMirrorsTheKickProtocolOnBothLayouts) {
  for (const RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
    SCOPED_TRACE(layout == RingLayout::kSplit ? "split" : "packed");
    Virtqueue vq("rx", kRingCapacity, layout);
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    auto e = vq.pop_avail();
    ASSERT_TRUE(e.has_value());
    vq.push_used(*e);
    EXPECT_TRUE(vq.interrupt_needed());
    vq.disable_interrupts();  // NAPI scheduled
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    e = vq.pop_avail();
    ASSERT_TRUE(e.has_value());
    vq.push_used(*e);
    EXPECT_FALSE(vq.interrupt_needed());  // masked while polling
    while (vq.pop_used().has_value()) {
    }
    vq.enable_interrupts();  // NAPI drained, re-armed
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    e = vq.pop_avail();
    ASSERT_TRUE(e.has_value());
    vq.push_used(*e);
    EXPECT_TRUE(vq.interrupt_needed());
  }
}

TEST(Suppression, DecisionSequencesAgreeAcrossThreeWrapCycles) {
  const int kCapacity = 4;
  std::string traces[2];
  int t = 0;
  for (const RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
    Virtqueue vq("wrap", kCapacity, layout);
    std::string trace;
    for (int i = 0; i < 3 * 2 * kCapacity; ++i) {
      ASSERT_TRUE(vq.add_avail({nullptr, 64}));
      if (vq.kick_needed()) {
        trace += 'K';
        vq.disable_notifications();
      }
      auto e = vq.pop_avail();
      ASSERT_TRUE(e.has_value());
      vq.push_used(*e);
      if (vq.interrupt_needed()) {
        trace += 'I';
        vq.disable_interrupts();
      }
      ASSERT_TRUE(vq.pop_used().has_value());
      if (i % 3 == 2) {
        if (vq.enable_notifications()) vq.disable_notifications();
        vq.enable_interrupts();
        trace += 'R';
      }
      EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
    }
    EXPECT_GT(vq.total_added(), 3 * kCapacity);  // wrapped at least thrice
    traces[t++] = trace;
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_NE(traces[0].find('K'), std::string::npos);
  EXPECT_NE(traces[0].find('I'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault-classification conformance
// ---------------------------------------------------------------------------

TEST(RingFaultConformance, WrapTearIsAPackedOnlyFault) {
  Virtqueue packed("tx", kRingCapacity, RingLayout::kPacked);
  packed.inject_wrap_tear();
  EXPECT_EQ(packed.check_integrity(), RingFault::kBadWrapCounter);
  // The split layout has no wrap counters; the same injection is inert.
  Virtqueue split("tx", kRingCapacity, RingLayout::kSplit);
  split.inject_wrap_tear();
  EXPECT_EQ(split.check_integrity(), RingFault::kNone);
}

TEST(RingFaultConformance, WrapTearIsDetectedAcrossWrapBoundaries) {
  Virtqueue vq("tx", 4, RingLayout::kPacked);
  // Advance past one wrap so the healthy wrap phase is the flipped one.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    auto e = vq.pop_avail();
    ASSERT_TRUE(e.has_value());
    vq.push_used(*e);
    ASSERT_TRUE(vq.pop_used().has_value());
  }
  EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
  vq.inject_wrap_tear();
  EXPECT_EQ(vq.check_integrity(), RingFault::kBadWrapCounter);
}

TEST(RingFaultConformance, IndexTearOutranksTheWrapCounterCrossCheck) {
  // A torn avail index also desynchronizes the wrap phase; it must still
  // classify as the index tear (detection order: accounting before wrap).
  Virtqueue vq("tx", kRingCapacity, RingLayout::kPacked);
  vq.inject_avail_tear();
  EXPECT_EQ(vq.check_integrity(), RingFault::kAvailIdxTorn);
}

TEST(RingFaultConformance, SharedFaultsClassifyIdenticallyOnBothLayouts) {
  for (const RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
    SCOPED_TRACE(layout == RingLayout::kSplit ? "split" : "packed");
    Virtqueue torn("a", kRingCapacity, layout);
    torn.inject_avail_tear();
    EXPECT_EQ(torn.check_integrity(), RingFault::kAvailIdxTorn);
    Virtqueue overrun("b", kRingCapacity, layout);
    overrun.inject_used_overrun();
    EXPECT_EQ(overrun.check_integrity(), RingFault::kUsedOverrun);
    Virtqueue dup("c", kRingCapacity, layout);
    dup.inject_duplicate_head();
    EXPECT_EQ(dup.check_integrity(), RingFault::kDuplicateHead);
  }
}

TEST(RingFaultConformance, ResetClearsAWrapTearAndRestoresThePhase) {
  Virtqueue vq("tx", kRingCapacity, RingLayout::kPacked);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(vq.add_avail({nullptr, 64}));
  vq.inject_wrap_tear();
  vq.flag_fault(vq.check_integrity());
  EXPECT_EQ(vq.pending_fault(), RingFault::kBadWrapCounter);
  const std::int64_t epoch = vq.reset_epoch();
  vq.reset();
  EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
  EXPECT_EQ(vq.pending_fault(), RingFault::kNone);
  EXPECT_EQ(vq.reset_epoch(), epoch + 1);
  // The ring is fully serviceable again, wrap phase included.
  ASSERT_TRUE(vq.add_avail({nullptr, 64}));
  EXPECT_TRUE(vq.kick_needed());
  auto e = vq.pop_avail();
  ASSERT_TRUE(e.has_value());
  vq.push_used(*e);
  EXPECT_TRUE(vq.interrupt_needed());
  EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
}

TEST(RingFaultConformance, BadWrapCounterHasAStableLadderName) {
  EXPECT_STREQ(ring_fault_name(RingFault::kBadWrapCounter),
               "bad_wrap_counter");
}

// ---------------------------------------------------------------------------
// Whole-system conformance: netperf streams over both layouts
// ---------------------------------------------------------------------------

StreamOptions dataplane_stream(RingLayout layout) {
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.ring_layout = layout;
  o.warmup = msec(50);
  o.measure = msec(200);
  return o;
}

void expect_identical(const StreamResult& split, const StreamResult& packed) {
  EXPECT_EQ(split.throughput_mbps, packed.throughput_mbps);
  EXPECT_EQ(split.packets_per_sec, packed.packets_per_sec);
  EXPECT_EQ(split.kicks_per_sec, packed.kicks_per_sec);
  EXPECT_EQ(split.guest_irqs_per_sec, packed.guest_irqs_per_sec);
  EXPECT_EQ(split.rx_dropped, packed.rx_dropped);
  EXPECT_EQ(split.link_dropped, packed.link_dropped);
  EXPECT_EQ(split.exits.total, packed.exits.total);
  EXPECT_GT(split.packets_per_sec, 0.0);
}

TEST(DataplaneConformance, TcpStreamResultsAreLayoutInvariant) {
  const StreamResult split = run_stream(dataplane_stream(RingLayout::kSplit));
  const StreamResult packed =
      run_stream(dataplane_stream(RingLayout::kPacked));
  expect_identical(split, packed);
}

TEST(DataplaneConformance, UdpPeerToVmStreamResultsAreLayoutInvariant) {
  StreamOptions split_opts = dataplane_stream(RingLayout::kSplit);
  split_opts.proto = Proto::kUdp;
  split_opts.vm_sends = false;
  StreamOptions packed_opts = split_opts;
  packed_opts.ring_layout = RingLayout::kPacked;
  expect_identical(run_stream(split_opts), run_stream(packed_opts));
}

TEST(DataplaneConformance, SameSeedHashSeriesRepeatPerLayout) {
  for (const RingLayout layout : {RingLayout::kSplit, RingLayout::kPacked}) {
    SCOPED_TRACE(layout == RingLayout::kSplit ? "split" : "packed");
    StreamOptions o = dataplane_stream(layout);
    o.snapshot.hash_epochs = true;
    o.snapshot.epoch = msec(10);
    const StreamResult a = run_stream(o);
    const StreamResult b = run_stream(o);
    ASSERT_NE(a.hashes, nullptr);
    ASSERT_NE(b.hashes, nullptr);
    EXPECT_GT(a.hashes->entries.size(), 5u);
    const Divergence d = find_divergence(*a.hashes, *b.hashes);
    EXPECT_EQ(d.epoch, -1) << d.detail;
  }
}

// ---------------------------------------------------------------------------
// Multi-queue: RSS steering, per-queue MSI isolation
// ---------------------------------------------------------------------------

TestbedOptions mq_testbed(int pairs, RingLayout layout = RingLayout::kSplit) {
  TestbedOptions o;
  o.config = Es2Config::pi_h_r();
  o.vhost_params.num_queue_pairs = pairs;
  o.vhost_params.ring_layout = layout;
  return o;
}

TEST(MultiQueue, RssHashIsDeterministicAndMixesFlows) {
  EXPECT_EQ(rss_hash(Proto::kTcp, 42), rss_hash(Proto::kTcp, 42));
  EXPECT_NE(rss_hash(Proto::kTcp, 42), rss_hash(Proto::kUdp, 42));
  std::set<std::uint32_t> hashes;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    hashes.insert(rss_hash(Proto::kTcp, flow));
  }
  EXPECT_GE(hashes.size(), 60u);  // FNV-1a over 64 flows: ~no collisions
}

TEST(MultiQueue, SteeringMatchesRssHashAndCoversEveryPair) {
  Testbed tb(mq_testbed(4));
  std::set<int> pairs_hit;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const int pair = tb.backend().steer_pair(Proto::kTcp, flow);
    EXPECT_EQ(pair, static_cast<int>(rss_hash(Proto::kTcp, flow) % 4));
    pairs_hit.insert(pair);
  }
  EXPECT_EQ(pairs_hit.size(), 4u);
  // Feature negotiation advertised MQ and the driver acked it.
  EXPECT_NE(tb.backend().features_acked() & kFeatureMq, 0u);
}

TEST(MultiQueue, SingleQueueDevicesSteerEverythingToPairZero) {
  Testbed tb(mq_testbed(1));
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    EXPECT_EQ(tb.backend().steer_pair(Proto::kUdp, flow), 0);
  }
  EXPECT_EQ(tb.backend().features_acked() & kFeatureMq, 0u);
}

TEST(MultiQueue, PerQueueMsiVectorsAreDistinctAndDriverOwned) {
  Testbed tb(mq_testbed(4));
  std::set<Vector> vectors;
  for (int pair = 0; pair < 4; ++pair) {
    const Vector tx = tb.backend().tx_msi(pair).vector;
    const Vector rx = tb.backend().rx_msi(pair).vector;
    vectors.insert(tx);
    vectors.insert(rx);
    EXPECT_TRUE(tb.frontend().owns_vector(tx)) << "pair " << pair;
    EXPECT_TRUE(tb.frontend().owns_vector(rx)) << "pair " << pair;
  }
  EXPECT_EQ(vectors.size(), 8u);  // no vector shared between queues
}

TEST(MultiQueue, RssSteeringDeliversOnlyToTheSteeredPairsRings) {
  Testbed tb(mq_testbed(4));
  tb.start();
  tb.sim().run_for(msec(2));  // boot settles, RX rings pre-posted
  // A flow that steers away from pair 0, to prove non-default routing.
  std::uint64_t flow = 0;
  while (tb.backend().steer_pair(Proto::kUdp, flow) == 0) ++flow;
  const int steered = tb.backend().steer_pair(Proto::kUdp, flow);
  std::int64_t before[4];
  for (int p = 0; p < 4; ++p) before[p] = tb.backend().rx_vq(p).total_used();
  const int kPackets = 16;
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.proto = Proto::kUdp;
    p.flow = flow;
    p.wire_size = 154;
    p.payload = 100;
    p.seq = static_cast<std::uint64_t>(i);
    tb.backend().receive_from_wire(make_packet(p));
  }
  tb.sim().run_for(msec(10));
  for (int p = 0; p < 4; ++p) {
    const std::int64_t delivered = tb.backend().rx_vq(p).total_used() - before[p];
    if (p == steered) {
      EXPECT_EQ(delivered, kPackets) << "steered pair " << p;
    } else {
      EXPECT_EQ(delivered, 0) << "cross-queue leakage into pair " << p;
    }
  }
}

TEST(MultiQueue, TcpStreamSpreadsThreadsAcrossQueuePairs) {
  StreamOptions o = dataplane_stream(RingLayout::kSplit);
  o.threads = 6;
  o.num_queue_pairs = 4;
  const StreamResult res = run_stream(o);
  EXPECT_GT(res.packets_per_sec, 0.0);
  // Stream thread t sends flow 100 + t; XPS pins each flow's TX traffic
  // to its RSS pair, so exactly the steered pairs' TX rings move.
  std::set<int> expected;
  for (std::uint64_t t = 0; t < 6; ++t) {
    expected.insert(static_cast<int>(rss_hash(Proto::kTcp, 100 + t) % 4));
  }
  EXPECT_GE(expected.size(), 2u);
  for (int pair = 0; pair < 4; ++pair) {
    const std::string vq_name =
        pair == 0 ? "vm0/txq" : "vm0/txq" + std::to_string(pair);
    const double added = res.metrics->value(
        metric_key("virtio.vq.added", {{"vm", "vm0"}, {"vq", vq_name}}), -1);
    ASSERT_GE(added, 0.0) << "missing instrument for " << vq_name;
    if (expected.count(pair) != 0) {
      EXPECT_GT(added, 0.0) << "steered pair " << pair << " idle";
    } else {
      EXPECT_EQ(added, 0.0) << "unsteered pair " << pair << " moved";
    }
  }
}

/// One 2-pair world under 20% kick loss with the guest TX watchdog on: a
/// VM-sending TCP stream per queue pair, sampled halfway and at the end.
struct MqWatchdogRun {
  std::int64_t used_mid[2] = {0, 0};
  std::int64_t used_end[2] = {0, 0};
  std::int64_t kicks_dropped = 0;
  std::int64_t tx_watchdog_kicks = 0;
  std::int64_t rx_watchdog_polls = 0;
  std::int64_t rx_repolls = 0;
  std::vector<std::uint64_t> digests;
};

MqWatchdogRun run_mq_watchdog() {
  TestbedOptions o = mq_testbed(2);
  o.faults.kick_loss = 0.2;
  o.guest_params.tx_watchdog = true;
  Testbed tb(std::move(o));
  std::vector<std::unique_ptr<NetperfSender>> senders;
  std::vector<std::unique_ptr<PeerStreamReceiver>> receivers;
  for (int pair = 0; pair < 2; ++pair) {
    std::uint64_t flow = 100;
    while (tb.backend().steer_pair(Proto::kTcp, flow) != pair) ++flow;
    senders.push_back(std::make_unique<NetperfSender>(
        tb.guest(), tb.frontend(), flow, Proto::kTcp, 1024, 0));
    receivers.push_back(
        std::make_unique<PeerStreamReceiver>(tb.peer(), flow, Proto::kTcp));
    tb.guest().add_task(*senders.back());
    tb.snapshotter().add("app/netperf-tx" + std::to_string(pair),
                         *senders.back());
    tb.snapshotter().add("app/peer-rx" + std::to_string(pair),
                         *receivers.back());
  }
  tb.start();
  MqWatchdogRun run;
  tb.sim().run_for(msec(60));
  for (int p = 0; p < 2; ++p) {
    run.used_mid[p] = tb.backend().tx_vq(p).total_used();
  }
  tb.sim().run_for(msec(60));
  for (int p = 0; p < 2; ++p) {
    run.used_end[p] = tb.backend().tx_vq(p).total_used();
  }
  run.kicks_dropped = tb.faults()->stats().kicks_dropped;
  run.tx_watchdog_kicks = tb.frontend().tx_watchdog_kicks();
  run.rx_watchdog_polls = tb.frontend().rx_watchdog_polls();
  run.rx_repolls = tb.backend().rx_repolls();
  run.digests = tb.snapshotter().component_hashes();
  return run;
}

TEST(MultiQueue, PerPairTxWatchdogKeepsEveryPairMovingUnderKickLoss) {
  // A fifth of the kicks vanish. Each pair's watchdog strike state must
  // notice its own stalled ring and re-kick it, so every pair's TX ring
  // keeps completing descriptors in both halves of the run.
  const MqWatchdogRun a = run_mq_watchdog();
  for (int p = 0; p < 2; ++p) {
    EXPECT_GT(a.used_mid[p], 0) << "pair " << p;
    EXPECT_GT(a.used_end[p], a.used_mid[p]) << "pair " << p << " stalled";
  }
  EXPECT_GT(a.kicks_dropped, 0);
  EXPECT_GT(a.tx_watchdog_kicks, 0);

  // Same seed, same ledger: the recovery counters and every component
  // digest (per-pair strike state included) repeat exactly.
  const MqWatchdogRun b = run_mq_watchdog();
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(a.used_mid[p], b.used_mid[p]);
    EXPECT_EQ(a.used_end[p], b.used_end[p]);
  }
  EXPECT_EQ(a.kicks_dropped, b.kicks_dropped);
  EXPECT_EQ(a.tx_watchdog_kicks, b.tx_watchdog_kicks);
  EXPECT_EQ(a.rx_watchdog_polls, b.rx_watchdog_polls);
  EXPECT_EQ(a.rx_repolls, b.rx_repolls);
  EXPECT_EQ(a.digests, b.digests);
}

// ---------------------------------------------------------------------------
// Busy-poll worker modes
// ---------------------------------------------------------------------------

TEST(BusyPoll, AlwaysPollRunsTheStreamExitLess) {
  StreamOptions o = dataplane_stream(RingLayout::kSplit);
  o.poll_mode = PollMode::kAlwaysPoll;
  const StreamResult res = run_stream(o);
  EXPECT_GT(res.packets_per_sec, 0.0);
  EXPECT_GT(res.throughput_mbps, 0.0);
  // Notifications are permanently disabled: the guest never kicks.
  EXPECT_EQ(res.kicks_per_sec, 0.0);
  const double harvests = res.metrics->value(
      metric_key("vhost.worker.poll_harvests", {{"worker", "vhost-vm0"}}), -1);
  const double spins = res.metrics->value(
      metric_key("vhost.worker.poll_spins", {{"worker", "vhost-vm0"}}), -1);
  EXPECT_GT(harvests, 0.0);
  EXPECT_GE(spins, 0.0);
}

TEST(BusyPoll, AlwaysPollResultsAreLayoutInvariant) {
  StreamOptions split_opts = dataplane_stream(RingLayout::kSplit);
  split_opts.poll_mode = PollMode::kAlwaysPoll;
  StreamOptions packed_opts = split_opts;
  packed_opts.ring_layout = RingLayout::kPacked;
  expect_identical(run_stream(split_opts), run_stream(packed_opts));
}

TEST(BusyPoll, PollCountersStayOutOfTheNotifyModeInstrumentSet) {
  // Only a polling worker registers poll counters: the instrument set of
  // stock notify-mode runs must not grow.
  const StreamResult res = run_stream(dataplane_stream(RingLayout::kSplit));
  EXPECT_EQ(res.metrics->value(
                metric_key("vhost.worker.poll_spins", {{"worker", "vhost-vm0"}}),
                -1),
            -1);
}

TEST(BusyPoll, AdaptivePollKicksBetweenAlwaysPollAndNotify) {
  // VM-sends TCP keeps the guest kicking in notify mode. The adaptive
  // worker only re-arms notifications at its sleep edges (idle longer
  // than the 50us budget), so its kick rate sits between the exit-less
  // always-poll discipline (zero) and stock notify mode (the most).
  const StreamOptions base = dataplane_stream(RingLayout::kSplit);
  double kicks[3];
  double pps[3];
  int i = 0;
  for (const PollMode mode :
       {PollMode::kAlwaysPoll, PollMode::kAdaptive, PollMode::kNotify}) {
    StreamOptions o = base;
    o.poll_mode = mode;
    const StreamResult res = run_stream(o);
    kicks[i] = res.kicks_per_sec;
    pps[i] = res.packets_per_sec;
    if (mode == PollMode::kAdaptive) {
      // The adaptive worker did spend time in its polling discipline.
      EXPECT_GT(res.metrics->value(metric_key("vhost.worker.poll_harvests",
                                              {{"worker", "vhost-vm0"}}),
                                   -1),
                0.0);
    }
    ++i;
  }
  EXPECT_EQ(kicks[0], 0.0);       // always-poll: exit-less
  EXPECT_GT(kicks[2], 0.0);       // notify: kick-driven
  EXPECT_LT(kicks[1], kicks[2]);  // adaptive suppresses kicks while polling
  // Every discipline moves the stream.
  EXPECT_GT(pps[0], 0.0);
  EXPECT_GT(pps[1], 0.0);
  EXPECT_GT(pps[2], 0.0);
}

// ---------------------------------------------------------------------------
// Concurrency sweep (tsan coverage for the busy-poll spin + MQ handlers)
// ---------------------------------------------------------------------------

TEST(DataplaneSweep, LayoutPollMatrixRunsConcurrently) {
  // Cell i is layout i / 3 under poll mode i % 3; the verdicts are read on
  // the main thread once every cell has finished.
  const RingLayout layouts[] = {RingLayout::kSplit, RingLayout::kPacked};
  const PollMode modes[] = {PollMode::kNotify, PollMode::kAlwaysPoll,
                            PollMode::kAdaptive};
  std::vector<StreamResult> results(6);
  parallel_for(
      6,
      [&](int i) {
        StreamOptions o;
        o.config = Es2Config::pi_h_r();
        o.ring_layout = layouts[i / 3];
        o.poll_mode = modes[i % 3];
        o.num_queue_pairs = 2;
        o.threads = 2;
        o.warmup = msec(20);
        o.measure = msec(100);
        results[static_cast<size_t>(i)] = run_stream(o);
      },
      4);
  for (int i = 0; i < 6; ++i) {
    const std::string cell =
        std::string(i / 3 == 0 ? "split" : "packed") + "/" +
        poll_mode_name(modes[i % 3]);
    const StreamResult& r = results[static_cast<size_t>(i)];
    EXPECT_GT(r.packets_per_sec, 0.0) << cell << ": no packets delivered";
    if (modes[i % 3] == PollMode::kAlwaysPoll) {
      EXPECT_EQ(r.kicks_per_sec, 0.0)
          << cell << ": always-poll cell executed guest kicks";
    }
  }
}

}  // namespace
}  // namespace es2
