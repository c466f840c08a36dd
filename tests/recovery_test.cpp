// Device-lifecycle and recovery-ladder tests: ring-integrity detection,
// the virtio status state machine, the RecoveryLog MTTR ledger, each
// ladder rung (watchdog -> vhost re-poll -> queue reset -> device
// reset-and-renegotiate), reset/snapshot drift guards, same-seed
// determinism of recovery paths, and the 10-sim-second all-fault-modes
// soak proving zero silent wedges.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/netperf.h"
#include "fault/recovery.h"
#include "harness/experiments.h"
#include "harness/testbed.h"
#include "snapshot/snapshot.h"
#include "snapshot/state_hash.h"
#include "virtio/device_status.h"
#include "virtio/virtqueue.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// Ring-integrity checking (Virtqueue)
// ---------------------------------------------------------------------------

TEST(RingIntegrity, HealthyRingReportsNoFault) {
  Virtqueue vq("tx", 8);
  EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
  ASSERT_TRUE(vq.add_avail({nullptr, 128}));
  auto e = vq.pop_avail();
  ASSERT_TRUE(e.has_value());
  vq.push_used(*e);
  EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
}

TEST(RingIntegrity, TornAvailIdxBreaksAccountingUpward) {
  Virtqueue vq("tx", 8);
  vq.inject_avail_tear();
  EXPECT_EQ(vq.check_integrity(), RingFault::kAvailIdxTorn);
}

TEST(RingIntegrity, UsedOverrunBreaksAccountingDownward) {
  Virtqueue vq("tx", 8);
  vq.inject_used_overrun();
  EXPECT_EQ(vq.check_integrity(), RingFault::kUsedOverrun);
}

TEST(RingIntegrity, DescriptorTableFaultsReportDirectly) {
  Virtqueue a("tx", 8);
  a.inject_desc_out_of_range();
  EXPECT_EQ(a.check_integrity(), RingFault::kDescOutOfRange);
  Virtqueue b("rx", 8);
  b.inject_duplicate_head();
  EXPECT_EQ(b.check_integrity(), RingFault::kDuplicateHead);
}

TEST(RingIntegrity, ResetClearsFaultsAndBumpsEpoch) {
  Virtqueue vq("tx", 8);
  vq.inject_avail_tear();
  vq.flag_fault(vq.check_integrity());
  EXPECT_EQ(vq.pending_fault(), RingFault::kAvailIdxTorn);
  const std::int64_t epoch = vq.reset_epoch();
  vq.reset();
  EXPECT_EQ(vq.check_integrity(), RingFault::kNone);
  EXPECT_EQ(vq.pending_fault(), RingFault::kNone);
  EXPECT_EQ(vq.reset_epoch(), epoch + 1);
  EXPECT_EQ(vq.total_added(), 0);
  EXPECT_EQ(vq.total_used(), 0);
}

// ---------------------------------------------------------------------------
// RecoveryLog ledger
// ---------------------------------------------------------------------------

TEST(RecoveryLog, ProgressOnScopeClosesInstanceAndRecordsMttr) {
  RecoveryLog log;
  log.open(LifecycleFault::kHandlerWedge, kScopeTx, usec(10), 0);
  EXPECT_EQ(log.open_count(), 1);
  // RX progress must not close a TX-scope instance.
  EXPECT_EQ(log.note_progress(kScopeRx, usec(20)), 0);
  EXPECT_EQ(log.note_progress(kScopeTx, usec(35)), 1);
  EXPECT_EQ(log.open_count(), 0);
  ASSERT_EQ(log.instances().size(), 1u);
  EXPECT_TRUE(log.instances()[0].recovered());
  EXPECT_EQ(log.instances()[0].mttr(), usec(25));
  EXPECT_EQ(log.recovered(LifecycleFault::kHandlerWedge), 1);
}

TEST(RecoveryLog, WorkerScopeIsClosedByProgressOnEitherQueue) {
  RecoveryLog log;
  log.open(LifecycleFault::kWorkerCrash, kScopeWorker, usec(10), 0);
  EXPECT_EQ(log.note_progress(kScopeRx, usec(50)), 1);
  EXPECT_TRUE(log.instances()[0].recovered());
}

TEST(RecoveryLog, RungAttributionKeepsTheHighestRungPulled) {
  RecoveryLog log;
  log.open(LifecycleFault::kDescCorrupt, kScopeTx, usec(10), 0);
  log.note_action(RecoveryRung::kVhostRepoll, kScopeTx);
  log.note_action(RecoveryRung::kQueueReset, kScopeTx);
  log.note_action(RecoveryRung::kVhostRepoll, kScopeTx);
  log.note_progress(kScopeTx, usec(90));
  EXPECT_TRUE(log.instances()[0].rung_known);
  EXPECT_EQ(log.instances()[0].rung, RecoveryRung::kQueueReset);
  EXPECT_EQ(log.actions(RecoveryRung::kVhostRepoll), 2);
  EXPECT_EQ(log.actions(RecoveryRung::kQueueReset), 1);
}

// ---------------------------------------------------------------------------
// Device-status state machine (through a real testbed)
// ---------------------------------------------------------------------------

/// A testbed whose lifecycle machinery is armed but dormant: the plan
/// names a period far past every test horizon, so the injector, recovery
/// log, selfcheck and ladder all exist without a single scheduled
/// injection. Tests drive faults by hand.
struct RecoveryWorld {
  explicit RecoveryWorld(bool ladder = true,
                         RingLayout layout = RingLayout::kSplit) {
    TestbedOptions o;
    o.config = Es2Config::pi_h_r();
    o.faults.desc_corrupt_period = sec(1000);  // armed, never fires
    o.guest_params.recovery_ladder = ladder;
    o.vhost_params.ring_layout = layout;
    tb = std::make_unique<Testbed>(std::move(o));
    rx = std::make_unique<NetperfReceiver>(tb->guest(), tb->frontend(), 100,
                                           Proto::kTcp);
    PeerStreamSender::Params p;
    p.proto = Proto::kTcp;
    p.msg_size = 1024;
    p.dupack_threshold = 3;
    tx = std::make_unique<PeerStreamSender>(tb->peer(), 100, p);
    tb->start();
    tx->start();
  }
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<NetperfReceiver> rx;
  std::unique_ptr<PeerStreamSender> tx;
};

TEST(DeviceStatus, FrontendBootsTheDeviceToDriverOk) {
  RecoveryWorld w;
  EXPECT_TRUE(w.tb->backend().driver_ok());
  EXPECT_FALSE(w.tb->backend().needs_reset());
  EXPECT_EQ(w.tb->backend().features_acked(),
            w.tb->backend().features_offered());
  // Boot = one reset + one renegotiation, deterministically.
  EXPECT_EQ(w.tb->backend().device_resets(), 1);
  EXPECT_EQ(w.tb->backend().renegotiations(), 1);
}

TEST(DeviceStatus, NeedsResetIsDeviceOwnedNotGuestWritable) {
  RecoveryWorld w;
  const std::uint8_t full = kStatusAcknowledge | kStatusDriver |
                            kStatusFeaturesOk | kStatusDriverOk;
  w.tb->backend().write_status(full | kStatusDeviceNeedsReset);
  EXPECT_FALSE(w.tb->backend().needs_reset());
}

TEST(DeviceStatus, FeatureAckMustBeASubsetOfTheOffer) {
  RecoveryWorld w;
  w.tb->backend().write_status(kStatusAcknowledge | kStatusDriver);
  EXPECT_FALSE(
      w.tb->backend().ack_features(w.tb->backend().features_offered() | 1));
  EXPECT_TRUE(w.tb->backend().ack_features(kFeatureEventIdx));
  EXPECT_EQ(w.tb->backend().features_acked(), kFeatureEventIdx);
}

TEST(DeviceStatus, WriteZeroPerformsFullReset) {
  RecoveryWorld w;
  w.tb->sim().run_for(msec(10));
  const std::int64_t resets = w.tb->backend().device_resets();
  w.tb->backend().write_status(0);
  EXPECT_FALSE(w.tb->backend().driver_ok());
  EXPECT_EQ(w.tb->backend().features_acked(), 0u);
  EXPECT_EQ(w.tb->backend().device_resets(), resets + 1);
  EXPECT_EQ(w.tb->backend().tx_vq(0).total_added(), 0);
  EXPECT_EQ(w.tb->backend().rx_vq(0).total_added(), 0);
}

// ---------------------------------------------------------------------------
// Recovery ladder rungs
// ---------------------------------------------------------------------------

TEST(RecoveryLadder, RingCorruptionIsDetectedQuarantinedAndQueueReset) {
  RecoveryWorld w;
  w.tb->sim().run_for(msec(50));
  w.tb->backend().inject_ring_corruption();
  w.tb->sim().run_for(msec(50));
  EXPECT_GE(w.tb->backend().ring_faults_detected(), 1);
  ASSERT_NE(w.tb->recovery_log(), nullptr);
  ASSERT_EQ(w.tb->recovery_log()->instances().size(), 1u);
  EXPECT_TRUE(w.tb->recovery_log()->instances()[0].recovered());
  EXPECT_GE(w.tb->recovery_log()->actions(RecoveryRung::kQueueReset), 1);
  EXPECT_GE(w.tb->frontend().ladder_queue_resets(), 1);
  EXPECT_FALSE(w.tb->backend().needs_reset());
}

TEST(RecoveryLadder, SingleWedgeEscalatesToAQueueResetOnly) {
  RecoveryWorld w;
  w.tb->sim().run_for(msec(50));
  w.tb->backend().inject_handler_wedge();  // wedges TX
  w.tb->sim().run_for(msec(100));
  ASSERT_EQ(w.tb->recovery_log()->instances().size(), 1u);
  EXPECT_TRUE(w.tb->recovery_log()->instances()[0].recovered());
  EXPECT_GE(w.tb->frontend().ladder_queue_resets(), 1);
  EXPECT_EQ(w.tb->frontend().ladder_device_resets(), 0);
  EXPECT_FALSE(w.tb->backend().needs_reset());
}

TEST(RecoveryLadder, DualQueueWedgeEscalatesToFullDeviceReset) {
  RecoveryWorld w;
  w.tb->sim().run_for(msec(50));
  w.tb->backend().inject_handler_wedge();  // TX
  w.tb->backend().inject_handler_wedge();  // RX
  w.tb->sim().run_for(msec(200));
  EXPECT_GE(w.tb->frontend().ladder_device_resets(), 1);
  // Boot negotiation + the recovery renegotiation.
  EXPECT_GE(w.tb->backend().renegotiations(), 2);
  EXPECT_FALSE(w.tb->backend().needs_reset());
  EXPECT_TRUE(w.tb->backend().driver_ok());
  for (const FaultInstance& fi : w.tb->recovery_log()->instances()) {
    EXPECT_TRUE(fi.recovered());
  }
}

TEST(RecoveryLadder, WorkerCrashRestartsAndRecovers) {
  RecoveryWorld w;
  w.tb->sim().run_for(msec(50));
  w.tb->backend().inject_worker_crash(usec(500));
  EXPECT_TRUE(w.tb->vhost_worker().crashed());
  w.tb->sim().run_for(msec(50));
  EXPECT_FALSE(w.tb->vhost_worker().crashed());
  EXPECT_EQ(w.tb->vhost_worker().crashes(), 1);
  EXPECT_EQ(w.tb->vhost_worker().restarts(), 1);
  ASSERT_EQ(w.tb->recovery_log()->instances().size(), 1u);
  EXPECT_TRUE(w.tb->recovery_log()->instances()[0].recovered());
  // The stream must be flowing again after the restart.
  const std::int64_t before = w.rx->packets_received();
  w.tb->sim().run_for(msec(20));
  EXPECT_GT(w.rx->packets_received(), before);
}

TEST(RecoveryLadder, PackedWrapTearClassifiesAndClimbsTheLadder) {
  RecoveryWorld w(/*ladder=*/true, RingLayout::kPacked);
  w.tb->sim().run_for(msec(50));
  // On a packed device the injector's avail-tear mode becomes a wrap
  // tear: the fault the split layout cannot even express.
  w.tb->backend().inject_avail_tear();  // first tear lands on TX
  EXPECT_EQ(w.tb->backend().tx_vq(0).check_integrity(),
            RingFault::kBadWrapCounter);
  w.tb->sim().run_for(msec(50));
  EXPECT_GE(w.tb->backend().ring_faults_detected(), 1);
  ASSERT_EQ(w.tb->recovery_log()->instances().size(), 1u);
  EXPECT_TRUE(w.tb->recovery_log()->instances()[0].recovered());
  EXPECT_GE(w.tb->frontend().ladder_queue_resets(), 1);
  EXPECT_FALSE(w.tb->backend().needs_reset());
  // The reset restored a healthy wrap phase.
  EXPECT_EQ(w.tb->backend().tx_vq(0).check_integrity(), RingFault::kNone);
}

TEST(RecoveryLadder, PackedDuplicateHeadIsQuarantinedAndQueueReset) {
  RecoveryWorld w(/*ladder=*/true, RingLayout::kPacked);
  w.tb->sim().run_for(msec(50));
  w.tb->backend().rx_vq(0).inject_duplicate_head();
  w.tb->sim().run_for(msec(50));
  // Descriptor-table faults classify identically on both layouts, and the
  // ladder's queue-reset rung clears them the same way.
  EXPECT_GE(w.tb->backend().ring_faults_detected(), 1);
  EXPECT_GE(w.tb->frontend().ladder_queue_resets(), 1);
  EXPECT_EQ(w.tb->frontend().ladder_device_resets(), 0);
  EXPECT_FALSE(w.tb->backend().needs_reset());
  EXPECT_EQ(w.tb->backend().rx_vq(0).check_integrity(), RingFault::kNone);
}

TEST(RecoveryLadder, LadderOffLeavesTheFaultAsALoudOpenInstance) {
  RecoveryWorld w(/*ladder=*/false);
  w.tb->sim().run_for(msec(50));
  w.tb->backend().inject_ring_corruption();
  w.tb->sim().run_for(msec(100));
  // Detection still happens (the device is self-protecting), but nobody
  // climbs the ladder: the device stays in DEVICE_NEEDS_RESET with its
  // queue quarantined — the condition the lifecycle auditor reports.
  EXPECT_GE(w.tb->backend().ring_faults_detected(), 1);
  EXPECT_TRUE(w.tb->backend().needs_reset());
  EXPECT_EQ(w.tb->frontend().ladder_queue_resets(), 0);
  EXPECT_EQ(w.tb->frontend().ladder_device_resets(), 0);
  EXPECT_EQ(w.tb->backend().queue_resets(), 0);
  EXPECT_EQ(w.tb->backend().device_resets(), 1);  // boot only
  // And it does not heal on its own, however long we wait.
  w.tb->sim().run_for(msec(200));
  EXPECT_TRUE(w.tb->backend().needs_reset());
}

// ---------------------------------------------------------------------------
// Reset/snapshot drift guards (satellite: audit of reset() methods)
// ---------------------------------------------------------------------------
//
// Each guard reads a component's snapshot back field-by-field. If someone
// adds a field to snapshot_state without updating reset() *and this
// inventory*, the trailing read probe trips: after consuming every known
// field the reader must be exactly at the section end.

/// Reads `n` trailing bytes to prove exhaustion: ok() must still hold,
/// and one more byte must poison the reader.
void expect_exhausted(SnapshotReader& r) {
  EXPECT_TRUE(r.ok()) << "snapshot has fewer fields than the inventory";
  (void)r.get_u8();
  EXPECT_FALSE(r.ok()) << "snapshot has more fields than the inventory — "
                          "update reset() and this test together";
}

/// Reads a just-reset ring's occupancy and EVENT_IDX suppression fields
/// (capacity 8, both rings empty, notifications and interrupts re-enabled,
/// indices zeroed) up to the cumulative telemetry.
void expect_reset_ring_fields(SnapshotReader& r) {
  EXPECT_EQ(r.get_u32(), 8u);   // capacity survives reset
  EXPECT_EQ(r.get_u32(), 0u);   // avail ring emptied
  EXPECT_EQ(r.get_u32(), 0u);   // used ring emptied
  EXPECT_EQ(r.get_u32(), 0u);   // in flight
  EXPECT_TRUE(r.get_bool());    // notifications re-enabled
  EXPECT_EQ(r.get_i64(), 0);    // avail_idx
  EXPECT_EQ(r.get_i64(), 0);    // avail_event
  EXPECT_TRUE(r.get_bool());    // interrupts re-enabled
  EXPECT_EQ(r.get_i64(), 0);    // used_idx
  EXPECT_EQ(r.get_i64(), 0);    // used_event
}

TEST(ResetSnapshotDrift, VirtqueueInventoryMatchesAndResetRestoresIt) {
  Virtqueue vq("tx", 8);
  ASSERT_TRUE(vq.add_avail({nullptr, 64}));
  auto e = vq.pop_avail();
  vq.push_used(*e);
  vq.disable_notifications();
  vq.enable_interrupts();
  vq.reset();

  SnapshotWriter w;
  w.begin_section("vq");
  vq.snapshot_state(w);
  SnapshotReader r;
  std::string error;
  ASSERT_TRUE(r.load(w.serialize(), &error)) << error;
  ASSERT_TRUE(r.seek("vq"));
  expect_reset_ring_fields(r);
  EXPECT_EQ(r.get_i64(), 0);    // notify_enables: cumulative telemetry,
  EXPECT_EQ(r.get_i64(), 1);    // irq_enables:    deliberately kept
  EXPECT_TRUE(r.get_bool());    // driver wrap counter at the boot phase
  EXPECT_TRUE(r.get_bool());    // device wrap counter at the boot phase
  EXPECT_TRUE(r.get_bool());    // enabled
  EXPECT_EQ(r.get_i64(), 1);    // reset epoch bumped
  EXPECT_EQ(r.get_u8(), 0u);    // no injected fault
  EXPECT_EQ(r.get_u8(), 0u);    // no pending fault
  expect_exhausted(r);
}

TEST(ResetSnapshotDrift, PackedVirtqueueResetRestoresTheWrapCounters) {
  // Packed and split rings serialize the same fields; reset() returns
  // both wrap counters to the boot phase.
  Virtqueue vq("tx", 8, RingLayout::kPacked);
  for (int i = 0; i < 9; ++i) {  // cross one wrap so the phase flipped
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    auto e = vq.pop_avail();
    vq.push_used(*e);
    vq.pop_used();
  }
  vq.reset();

  SnapshotWriter w;
  w.begin_section("vq");
  vq.snapshot_state(w);
  SnapshotWriter split;
  split.begin_section("vq");
  Virtqueue("tx", 8).snapshot_state(split);
  EXPECT_EQ(w.byte_size(), split.byte_size());
  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize()));
  ASSERT_TRUE(r.seek("vq"));
  expect_reset_ring_fields(r);
  EXPECT_EQ(r.get_i64(), 0);    // notify_enables
  EXPECT_EQ(r.get_i64(), 0);    // irq_enables
  EXPECT_TRUE(r.get_bool());    // driver wrap counter back to boot phase
  EXPECT_TRUE(r.get_bool());    // device wrap counter back to boot phase
  EXPECT_TRUE(r.get_bool());    // enabled
  EXPECT_EQ(r.get_i64(), 1);    // reset epoch bumped
  EXPECT_EQ(r.get_u8(), 0u);    // no injected fault
  EXPECT_EQ(r.get_u8(), 0u);    // no pending fault
  expect_exhausted(r);
}

TEST(ResetSnapshotDrift, VirtqueueLifecycleInventoryMatches) {
  Virtqueue vq("tx", 8);
  vq.inject_avail_tear();
  vq.flag_fault(vq.check_integrity());
  vq.reset();

  SnapshotWriter w;
  w.begin_section("vq");
  vq.snapshot_state(w);
  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize()));
  ASSERT_TRUE(r.seek("vq"));
  expect_reset_ring_fields(r);
  (void)r.get_i64();          // notify_enables
  (void)r.get_i64();          // irq_enables
  (void)r.get_bool();         // driver wrap counter
  (void)r.get_bool();         // device wrap counter
  EXPECT_TRUE(r.get_bool());  // enabled (reset leaves the queue enabled)
  EXPECT_EQ(r.get_i64(), 1);  // reset epoch bumped
  EXPECT_EQ(r.get_u8(), 0u);  // injected fault cleared
  EXPECT_EQ(r.get_u8(), 0u);  // pending fault cleared
  expect_exhausted(r);
}

TEST(ResetSnapshotDrift, EmulatedLapicInventoryMatchesAndResetRestoresIt) {
  EmulatedLapic lapic;
  lapic.post(40);
  lapic.post(50);
  lapic.begin_service(50);
  lapic.reset();

  SnapshotWriter w;
  w.begin_section("lapic");
  lapic.snapshot_state(w);
  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize()));
  ASSERT_TRUE(r.seek("lapic"));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.get_u64(), 0u);  // IRR cleared
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.get_u64(), 0u);  // ISR cleared
  EXPECT_EQ(r.get_i64(), 2);  // posts: lifetime counter, kept
  EXPECT_EQ(r.get_i64(), 0);  // eois
  expect_exhausted(r);
}

TEST(ResetSnapshotDrift, VApicPageInventoryMatchesAndResetRestoresIt) {
  VApicPage vapic;
  vapic.pi().post(40);
  vapic.sync_pir();
  vapic.reset();

  SnapshotWriter w;
  w.begin_section("vapic");
  vapic.snapshot_state(w);
  SnapshotReader r;
  ASSERT_TRUE(r.load(w.serialize()));
  ASSERT_TRUE(r.seek("vapic"));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.get_u64(), 0u);  // PIR cleared
  EXPECT_FALSE(r.get_bool());  // ON cleared
  EXPECT_EQ(r.get_i64(), 1);   // pi posts: lifetime counter, kept
  EXPECT_EQ(r.get_i64(), 1);   // pi notification IPIs: lifetime, kept
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.get_u64(), 0u);  // vIRR cleared
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.get_u64(), 0u);  // vISR cleared
  EXPECT_EQ(r.get_i64(), 0);   // eois
  expect_exhausted(r);
}

TEST(ResetSnapshotDrift, FrontendInventoryMatches) {
  RecoveryWorld w;
  SnapshotWriter sw;
  sw.begin_section("net");
  w.tb->frontend().snapshot_state(sw);
  SnapshotReader r;
  ASSERT_TRUE(r.load(sw.serialize()));
  ASSERT_TRUE(r.seek("net"));
  (void)r.get_u32();   // tx_waiters
  (void)r.get_i64();   // tx_stops
  (void)r.get_i64();   // rx_polled
  (void)r.get_i64();   // kicks
  (void)r.get_i64();   // tx_watchdog_kicks
  (void)r.get_i64();   // rx_watchdog_polls
  // The one queue pair.
  (void)r.get_bool();  // napi_scheduled
  (void)r.get_i64();   // watchdog_last_used
  (void)r.get_u32();   // watchdog_strikes
  (void)r.get_i64();   // rx_watchdog_last_polled
  (void)r.get_u32();   // rx_watchdog_strikes
  (void)r.get_i64();   // rx_polled_by_pair
  (void)r.get_bool();  // ksoftirqd_pending
  // Recovery ladder: one recent-reset count per flat queue, then totals.
  (void)r.get_u32();   // ladder_recent[TX0]
  (void)r.get_u32();   // ladder_recent[RX0]
  (void)r.get_i64();   // ladder_queue_resets
  (void)r.get_i64();   // ladder_device_resets
  // Overload detector and ladder.
  (void)r.get_u32();   // overload_rung
  (void)r.get_u32();   // overload_max_rung
  (void)r.get_u32();   // overload_strikes
  (void)r.get_u32();   // overload_clear
  (void)r.get_bool();  // overload_episode_open
  (void)r.get_i64();   // overload_last_polls
  (void)r.get_i64();   // overload_last_progress
  (void)r.get_i64();   // livelock_detections
  (void)r.get_i64();   // ksoftirqd_defers
  (void)r.get_i64();   // ksoftirqd_polls
  expect_exhausted(r);
}

// ---------------------------------------------------------------------------
// Determinism: recovery paths must not perturb the hash oracle
// ---------------------------------------------------------------------------

TEST(RecoveryDeterminism, FaultsOffHashSeriesIsReproducibleWithMachineryBuilt) {
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.warmup = msec(50);
  o.measure = msec(200);
  o.snapshot.hash_epochs = true;
  const StreamResult a = run_stream(o);
  const StreamResult b = run_stream(o);
  ASSERT_NE(a.hashes, nullptr);
  ASSERT_NE(b.hashes, nullptr);
  const Divergence d = find_divergence(*a.hashes, *b.hashes);
  EXPECT_EQ(d.epoch, -1) << d.detail;
}

TEST(RecoveryDeterminism, SameSeedRecoveryRunsProduceIdenticalLedgers) {
  RecoveryStreamOptions o;
  o.chaos.stream.config = Es2Config::pi_h_r();
  o.chaos.stream.vm_sends = false;
  o.chaos.stream.warmup = msec(100);
  o.chaos.stream.measure = msec(400);
  o.chaos.faults.handler_wedge_period = msec(89);
  o.chaos.faults.worker_crash_period = msec(113);
  o.chaos.stream.snapshot.hash_epochs = true;
  const RecoveryStreamResult a = run_recovery_stream(o);
  const RecoveryStreamResult b = run_recovery_stream(o);
  EXPECT_GT(a.injected, 0);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.mttr_p50, b.mttr_p50);
  EXPECT_EQ(a.mttr_p99, b.mttr_p99);
  ASSERT_NE(a.chaos.stream.hashes, nullptr);
  const Divergence d =
      find_divergence(*a.chaos.stream.hashes, *b.chaos.stream.hashes);
  EXPECT_EQ(d.epoch, -1) << d.detail;
}

TEST(RecoveryDeterminism, PackedRingFaultPlanRecoversCleanly) {
  // The lifecycle fault plan drives a packed-ring world: tears arrive as
  // wrap tears, corruption as packed descriptor faults — every instance
  // must still recover through the same ladder, deterministically.
  RecoveryStreamOptions o;
  o.chaos.stream.config = Es2Config::pi_h_r();
  o.chaos.stream.ring_layout = RingLayout::kPacked;
  o.chaos.stream.vm_sends = false;
  o.chaos.stream.warmup = msec(100);
  o.chaos.stream.measure = msec(400);
  o.chaos.faults.desc_corrupt_period = msec(97);
  o.chaos.faults.avail_tear_period = msec(103);
  const RecoveryStreamResult a = run_recovery_stream(o, "packed-faults");
  EXPECT_TRUE(a.clean()) << a.chaos.report.to_line();
  EXPECT_GT(a.injected, 0);
  EXPECT_EQ(a.recovered, a.injected);
  EXPECT_GE(a.ring_faults_detected, 1);
  const RecoveryStreamResult b = run_recovery_stream(o, "packed-faults");
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.mttr_p50, b.mttr_p50);
  EXPECT_EQ(a.mttr_p99, b.mttr_p99);
}

// ---------------------------------------------------------------------------
// The soak: 10 simulated seconds, every fault mode, zero silent wedges
// ---------------------------------------------------------------------------

TEST(RecoverySoak, AllFaultModesRecoverOrReportWithinTenSimSeconds) {
  RecoveryStreamOptions o;
  o.chaos.stream.config = Es2Config::pi_h_r();
  o.chaos.stream.vm_sends = false;
  o.chaos.stream.warmup = msec(200);
  o.chaos.stream.measure = sec(10);
  o.chaos.faults.desc_corrupt_period = msec(97);
  o.chaos.faults.avail_tear_period = msec(103);
  o.chaos.faults.handler_wedge_period = msec(89);
  o.chaos.faults.worker_crash_period = msec(113);
  o.chaos.audit = true;
  o.chaos.budget.max_sim_time = sec(15);
  o.chaos.budget.progress_window = msec(100);
  o.chaos.budget.stall_windows = 12;
  const RecoveryStreamResult r = run_recovery_stream(o, "soak");

  EXPECT_TRUE(r.chaos.report.ok()) << r.chaos.report.to_line();
  EXPECT_GT(r.injected, 100);  // every mode, many instances
  EXPECT_EQ(r.unrecovered, 0);
  EXPECT_TRUE(r.wedges.empty());
  for (const WedgeReport& wr : r.wedges) ADD_FAILURE() << wr.detail;
  EXPECT_EQ(r.chaos.audit_violations, 0);
  // Every mode actually injected and fully recovered.
  EXPECT_EQ(r.modes.size(), 4u);
  for (const RecoveryModeStats& m : r.modes) {
    EXPECT_GT(m.injected, 0) << lifecycle_fault_name(m.mode);
    EXPECT_EQ(m.recovered, m.injected) << lifecycle_fault_name(m.mode);
    EXPECT_GT(m.mttr_p99, 0) << lifecycle_fault_name(m.mode);
  }
  // MTTR is bounded: nothing took longer than a tenth of the soak.
  EXPECT_LT(r.mttr_p99, sec(1));
}

}  // namespace
}  // namespace es2
