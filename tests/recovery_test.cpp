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
// Each guard writes a component's annotated field inventory into a second
// writer. The byte counts must match, so a field added to snapshot_state
// without updating reset() *and this inventory* trips the guard; where
// the inventory spells out the post-reset values, the digests must match
// too, so a field that reset() skips trips it.

/// `component`'s snapshot must hash exactly the inventory's bytes and,
/// when `values` is set, the inventory's values.
template <typename Component>
void expect_inventory(const Component& component,
                      const SnapshotWriter& inventory, bool values = true) {
  SnapshotWriter w;
  component.snapshot_state(w);
  EXPECT_EQ(w.byte_size(), inventory.byte_size())
      << "snapshot and inventory list different fields — update reset() "
         "and this test together";
  if (values) {
    EXPECT_EQ(w.hash(), inventory.hash())
        << "a field differs from its inventory value (did reset() skip it?)";
  }
}

/// A just-reset ring's occupancy and EVENT_IDX suppression fields
/// (capacity 8, both rings empty, notifications and interrupts re-enabled,
/// indices zeroed) up to the cumulative telemetry.
void put_reset_ring_fields(SnapshotWriter& w) {
  w.put_u32(8);      // capacity survives reset
  w.put_u32(0);      // avail ring emptied
  w.put_u32(0);      // used ring emptied
  w.put_u32(0);      // in flight
  w.put_bool(true);  // notifications re-enabled
  w.put_i64(0);      // avail_idx
  w.put_i64(0);      // avail_event
  w.put_bool(true);  // interrupts re-enabled
  w.put_i64(0);      // used_idx
  w.put_i64(0);      // used_event
}

TEST(ResetSnapshotDrift, VirtqueueInventoryMatchesAndResetRestoresIt) {
  Virtqueue vq("tx", 8);
  ASSERT_TRUE(vq.add_avail({nullptr, 64}));
  auto e = vq.pop_avail();
  vq.push_used(*e);
  vq.disable_notifications();
  vq.enable_interrupts();
  vq.reset();

  SnapshotWriter inv;
  put_reset_ring_fields(inv);
  inv.put_i64(0);      // notify_enables: cumulative telemetry,
  inv.put_i64(1);      // irq_enables:    deliberately kept
  inv.put_bool(true);  // driver wrap counter at the boot phase
  inv.put_bool(true);  // device wrap counter at the boot phase
  inv.put_bool(true);  // enabled
  inv.put_i64(1);      // reset epoch bumped
  inv.put_u8(0);       // no injected fault
  inv.put_u8(0);       // no pending fault
  expect_inventory(vq, inv);
}

TEST(ResetSnapshotDrift, PackedVirtqueueResetRestoresTheWrapCounters) {
  // Packed and split rings write the same fields; reset() returns both
  // wrap counters to the boot phase.
  Virtqueue vq("tx", 8, RingLayout::kPacked);
  for (int i = 0; i < 9; ++i) {  // cross one wrap so the phase flipped
    ASSERT_TRUE(vq.add_avail({nullptr, 64}));
    auto e = vq.pop_avail();
    vq.push_used(*e);
    vq.pop_used();
  }
  vq.reset();

  SnapshotWriter packed;
  vq.snapshot_state(packed);
  SnapshotWriter split;
  Virtqueue("tx", 8).snapshot_state(split);
  EXPECT_EQ(packed.byte_size(), split.byte_size());
  SnapshotWriter inv;
  put_reset_ring_fields(inv);
  inv.put_i64(0);      // notify_enables
  inv.put_i64(0);      // irq_enables
  inv.put_bool(true);  // driver wrap counter back to boot phase
  inv.put_bool(true);  // device wrap counter back to boot phase
  inv.put_bool(true);  // enabled
  inv.put_i64(1);      // reset epoch bumped
  inv.put_u8(0);       // no injected fault
  inv.put_u8(0);       // no pending fault
  expect_inventory(vq, inv);
}

TEST(ResetSnapshotDrift, VirtqueueLifecycleInventoryMatches) {
  Virtqueue vq("tx", 8);
  vq.inject_avail_tear();
  vq.flag_fault(vq.check_integrity());
  vq.reset();

  SnapshotWriter inv;
  put_reset_ring_fields(inv);
  inv.put_i64(0);      // notify_enables
  inv.put_i64(0);      // irq_enables
  inv.put_bool(true);  // driver wrap counter
  inv.put_bool(true);  // device wrap counter
  inv.put_bool(true);  // enabled (reset leaves the queue enabled)
  inv.put_i64(1);      // reset epoch bumped
  inv.put_u8(0);       // injected fault cleared
  inv.put_u8(0);       // pending fault cleared
  expect_inventory(vq, inv);
}

TEST(ResetSnapshotDrift, EmulatedLapicInventoryMatchesAndResetRestoresIt) {
  EmulatedLapic lapic;
  lapic.post(40);
  lapic.post(50);
  lapic.begin_service(50);
  lapic.reset();

  SnapshotWriter inv;
  for (int i = 0; i < 4; ++i) inv.put_u64(0);  // IRR cleared
  for (int i = 0; i < 4; ++i) inv.put_u64(0);  // ISR cleared
  inv.put_i64(2);  // posts: lifetime counter, kept
  inv.put_i64(0);  // eois
  expect_inventory(lapic, inv);
}

TEST(ResetSnapshotDrift, VApicPageInventoryMatchesAndResetRestoresIt) {
  VApicPage vapic;
  vapic.pi().post(40);
  vapic.sync_pir();
  vapic.reset();

  SnapshotWriter inv;
  for (int i = 0; i < 4; ++i) inv.put_u64(0);  // PIR cleared
  inv.put_bool(false);  // ON cleared
  inv.put_i64(1);       // pi posts: lifetime counter, kept
  inv.put_i64(1);       // pi notification IPIs: lifetime, kept
  for (int i = 0; i < 4; ++i) inv.put_u64(0);  // vIRR cleared
  for (int i = 0; i < 4; ++i) inv.put_u64(0);  // vISR cleared
  inv.put_i64(0);       // eois
  expect_inventory(vapic, inv);
}

TEST(ResetSnapshotDrift, FrontendInventoryMatches) {
  RecoveryWorld w;
  SnapshotWriter inv;  // field widths only: the values are a live run's
  inv.put_u32(0);       // tx_waiters
  inv.put_i64(0);       // tx_stops
  inv.put_i64(0);       // rx_polled
  inv.put_i64(0);       // kicks
  inv.put_i64(0);       // tx_watchdog_kicks
  inv.put_i64(0);       // rx_watchdog_polls
  // The one queue pair.
  inv.put_bool(false);  // napi_scheduled
  inv.put_i64(0);       // watchdog_last_used
  inv.put_u32(0);       // watchdog_strikes
  inv.put_i64(0);       // rx_watchdog_last_polled
  inv.put_u32(0);       // rx_watchdog_strikes
  inv.put_i64(0);       // rx_polled_by_pair
  inv.put_bool(false);  // ksoftirqd_pending
  // Recovery ladder: one recent-reset count per flat queue, then totals.
  inv.put_u32(0);       // ladder_recent[TX0]
  inv.put_u32(0);       // ladder_recent[RX0]
  inv.put_i64(0);       // ladder_queue_resets
  inv.put_i64(0);       // ladder_device_resets
  // Overload detector and ladder.
  inv.put_u32(0);       // overload_rung
  inv.put_u32(0);       // overload_max_rung
  inv.put_u32(0);       // overload_strikes
  inv.put_u32(0);       // overload_clear
  inv.put_bool(false);  // overload_episode_open
  inv.put_i64(0);       // overload_last_polls
  inv.put_i64(0);       // overload_last_progress
  inv.put_i64(0);       // livelock_detections
  inv.put_i64(0);       // ksoftirqd_defers
  inv.put_i64(0);       // ksoftirqd_polls
  expect_inventory(w.tb->frontend(), inv, /*values=*/false);
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
