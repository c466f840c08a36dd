// Chaos-layer tests: seeded fault injection, the recovery paths it
// exercises (TCP retransmit, guest TX watchdog, vhost RX re-poll), the
// invariant auditor, and the no-progress watchdog.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/netperf.h"
#include "fault/fault.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "net/link.h"
#include "net/peer.h"
#include "sim/invariant_auditor.h"
#include "sim/simulator.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector primitives
// ---------------------------------------------------------------------------

TEST(FaultInjector, AllOffPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.kick_loss = 0.5;
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultInjector, CertainLossDropsEveryPacket) {
  Simulator sim(1);
  FaultPlan plan;
  plan.link_loss = 1.0;
  FaultInjector fi(sim, plan);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(fi.drop_packet());
  EXPECT_EQ(fi.stats().link_dropped, 64);
}

TEST(FaultInjector, GilbertElliottBadStateDropsAtItsOwnRate) {
  Simulator sim(1);
  FaultPlan plan;
  // Enter the bad state on the first packet and never leave; the bad
  // state drops everything while the i.i.d. floor stays zero.
  plan.link_burst.p_good_to_bad = 1.0;
  plan.link_burst.p_bad_to_good = 0.0;
  plan.link_burst.loss_bad = 1.0;
  FaultInjector fi(sim, plan);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(fi.drop_packet());
}

TEST(FaultInjector, KickFateDistributionFollowsPlan) {
  Simulator sim(7);
  FaultPlan plan;
  plan.kick_loss = 1.0;
  FaultInjector drop_all(sim, plan);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(drop_all.kick_fate(), FaultInjector::KickFate::kDrop);
  }
  FaultPlan delay_plan;
  delay_plan.kick_delay_prob = 1.0;
  delay_plan.kick_delay = usec(3);
  FaultInjector delay_all(sim, delay_plan);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(delay_all.kick_fate(), FaultInjector::KickFate::kDelay);
  }
  EXPECT_EQ(delay_all.kick_delay(), usec(3));
  EXPECT_EQ(delay_all.stats().kicks_delayed, 16);
}

TEST(FaultInjector, WorkerStallIsPositiveWhenCertain) {
  Simulator sim(3);
  FaultPlan plan;
  plan.worker_stall_prob = 1.0;
  plan.worker_stall = usec(100);
  FaultInjector fi(sim, plan);
  for (int i = 0; i < 16; ++i) EXPECT_GT(fi.worker_stall(), 0);
  EXPECT_EQ(fi.stats().worker_stalls, 16);
}

// ---------------------------------------------------------------------------
// Link-level injection
// ---------------------------------------------------------------------------

PacketPtr test_packet(std::uint64_t flow) {
  Packet p;
  p.flow = flow;
  p.payload = 1000;
  p.wire_size = 1040;
  return make_packet(std::move(p));
}

TEST(LinkFaults, CertainLossCountsDropsAndDeliversNothing) {
  Simulator sim(1);
  Link link(sim, 40.0, usec(1));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  FaultPlan plan;
  plan.link_loss = 1.0;
  FaultInjector fi(sim, plan);
  link.set_fault_injector(&fi);
  for (int i = 0; i < 20; ++i) link.transmit(test_packet(1));
  sim.run_for(msec(10));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.packets_dropped(), 20);
  EXPECT_EQ(link.packets_sent(), 20);  // the sender still serialized them
}

TEST(LinkFaults, CertainDuplicationDeliversEveryPacketTwice) {
  Simulator sim(1);
  Link link(sim, 40.0, usec(1));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  FaultPlan plan;
  plan.link_duplicate = 1.0;
  FaultInjector fi(sim, plan);
  link.set_fault_injector(&fi);
  for (int i = 0; i < 10; ++i) link.transmit(test_packet(1));
  sim.run_for(msec(10));
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(link.packets_dropped(), 0);
}

TEST(LinkFaults, PerfectLinkWithoutInjectorCountsNoDrops) {
  Simulator sim(1);
  Link link(sim, 40.0, usec(1));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.transmit(test_packet(1));
  sim.run_for(msec(10));
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(link.packets_dropped(), 0);
}

// ---------------------------------------------------------------------------
// run_until_capped / ScenarioWatchdog
// ---------------------------------------------------------------------------

TEST(RunUntilCapped, EventCapContainsSameTimestampLivelock) {
  Simulator sim(1);
  // A pathological event that re-schedules itself at the same instant:
  // run_until would never return.
  std::function<void()> spin = [&] { sim.at(sim.now(), spin); };
  sim.at(usec(1), spin);
  const std::uint64_t ran = sim.run_until_capped(msec(1), 1000);
  EXPECT_EQ(ran, 1000u);
  // A capped stop must not claim the deadline as its clock.
  EXPECT_EQ(sim.now(), usec(1));
}

TEST(RunUntilCapped, UncappedSpanAdvancesToDeadline) {
  Simulator sim(1);
  int fired = 0;
  sim.at(usec(5), [&] { ++fired; });
  const std::uint64_t ran = sim.run_until_capped(msec(1), 1000);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), msec(1));
}

TEST(ScenarioWatchdog, TripsOnEventBudgetDuringLivelock) {
  Simulator sim(1);
  std::function<void()> spin = [&] { sim.at(sim.now(), spin); };
  sim.at(usec(1), spin);
  ScenarioBudget budget;
  budget.max_events = 5000;
  budget.progress_window = usec(100);
  ScenarioWatchdog wd(sim, budget);
  EXPECT_FALSE(wd.run_for(msec(10), nullptr));
  EXPECT_EQ(wd.status(), ScenarioStatus::kEventBudget);
  const ScenarioReport report = wd.report("livelock");
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_line().find("WATCHDOG livelock"), std::string::npos);
}

TEST(ScenarioWatchdog, TripsOnFlatProgressWhileEventsChurn) {
  Simulator sim(1);
  // Busy but useless: a periodic timer churns events without any progress.
  PeriodicTimer ticker(sim, usec(10), [] {});
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;
  ScenarioWatchdog wd(sim, budget);
  EXPECT_FALSE(wd.run_for(msec(10), [] { return std::int64_t{42}; }));
  EXPECT_EQ(wd.status(), ScenarioStatus::kNoProgress);
}

TEST(ScenarioWatchdog, HealthySpanWithProgressPasses) {
  Simulator sim(1);
  std::int64_t work = 0;
  PeriodicTimer ticker(sim, usec(10), [&] { ++work; });
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;
  ScenarioWatchdog wd(sim, budget);
  EXPECT_TRUE(wd.run_for(msec(5), [&] { return work; }));
  EXPECT_TRUE(wd.ok());
  EXPECT_EQ(sim.now(), msec(5));
}

TEST(ScenarioWatchdog, TripsOnSimTimeBudget) {
  Simulator sim(1);
  PeriodicTimer ticker(sim, usec(50), [] {});
  ticker.start();
  ScenarioBudget budget;
  budget.max_sim_time = msec(2);
  budget.progress_window = usec(100);
  ScenarioWatchdog wd(sim, budget);
  std::int64_t fake_progress = 0;
  // Progress keeps moving, so only the sim-time ceiling can trip.
  EXPECT_FALSE(wd.run_for(msec(10), [&] { return ++fake_progress; }));
  EXPECT_EQ(wd.status(), ScenarioStatus::kSimTimeBudget);
}

// ---------------------------------------------------------------------------
// InvariantAuditor
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, CatchesSeededViolationWithTimestamp) {
  Simulator sim(1);
  InvariantAuditor auditor(sim, usec(100));
  int sweep = 0;
  auditor.add_check("seeded", [&]() -> std::optional<std::string> {
    // Healthy for the first two sweeps, then persistently broken.
    if (++sweep < 3) return std::nullopt;
    return "index moved backwards";
  });
  auditor.start();
  sim.run_for(msec(1));
  auditor.stop();
  EXPECT_EQ(auditor.sweeps(), 10u);
  EXPECT_EQ(auditor.total_violations(), 8);
  EXPECT_FALSE(auditor.clean());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].check, "seeded");
  EXPECT_EQ(auditor.violations()[0].at, usec(300));
  EXPECT_EQ(auditor.violations()[0].message, "index moved backwards");
}

TEST(InvariantAuditor, RecordingIsCappedButCountingIsNot) {
  Simulator sim(1);
  InvariantAuditor auditor(sim, usec(10));
  auditor.add_check("always",
                    [] { return std::optional<std::string>("bad"); });
  auditor.start();
  sim.run_for(msec(2));  // 200 sweeps
  EXPECT_EQ(auditor.total_violations(), 200);
  EXPECT_EQ(static_cast<int>(auditor.violations().size()),
            InvariantAuditor::kMaxRecorded);
}

TEST(InvariantAuditor, StoppedAuditorSchedulesNothing) {
  Simulator sim(1);
  InvariantAuditor auditor(sim, usec(10));
  auditor.add_check("never", [] { return std::optional<std::string>("bad"); });
  // Never started: draining the queue runs zero events.
  EXPECT_EQ(sim.run_to_completion(), 0u);
  EXPECT_EQ(auditor.sweeps(), 0u);
}

// ---------------------------------------------------------------------------
// PeerStreamSender RTO machinery (minimal wire world, no VM)
// ---------------------------------------------------------------------------

struct BlackholeWorld {
  Simulator sim{1};
  DuplexLink link{sim, 40.0, usec(1)};
  PeerHost peer{sim, link.b_to_a};
  int swallowed = 0;

  BlackholeWorld() {
    // Everything the peer sends toward the "VM" disappears: no ACKs ever
    // come back, so the RTO path is the only thing running.
    link.b_to_a.set_receiver([this](PacketPtr) { ++swallowed; });
  }
};

TEST(PeerStreamSenderRto, BackoffCapThrottlesRetransmitStorm) {
  // With the cap at 0 the RTO never backs off and fires ~every rto; with a
  // generous cap the intervals stretch exponentially. Compare retransmit
  // counts over the same span.
  auto run_with_cap = [](int cap) {
    BlackholeWorld w;
    PeerStreamSender::Params p;
    p.rto = usec(200);
    p.max_rto_backoff = cap;
    PeerStreamSender sender(w.peer, 9, p);
    sender.start();
    w.sim.run_for(msec(20));
    sender.stop();
    return sender.retransmits();
  };
  const std::int64_t no_backoff = run_with_cap(0);
  const std::int64_t capped = run_with_cap(4);
  // ~100 firings without backoff; with shifts 1,2,4,8,16x the count
  // collapses. Loose bounds keep the test robust.
  EXPECT_GT(no_backoff, 50);
  EXPECT_LT(capped, no_backoff / 3);
  EXPECT_GT(capped, 0);
}

TEST(PeerStreamSenderRto, StopCancelsTheArmedRtoTimer) {
  BlackholeWorld w;
  PeerStreamSender::Params p;
  p.rto = msec(1);
  PeerStreamSender sender(w.peer, 9, p);
  sender.start();
  w.sim.run_for(msec(5));
  sender.stop();
  // Drain in-flight wire events; after that the queue must be empty — a
  // leaked RTO timer would keep re-arming forever.
  w.sim.run_for(msec(2));
  EXPECT_EQ(w.sim.run_to_completion(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end chaos scenarios (micro topology, short windows)
// ---------------------------------------------------------------------------

StreamOptions short_stream(const Es2Config& config, bool vm_sends) {
  StreamOptions o;
  o.config = config;
  o.vm_sends = vm_sends;
  o.warmup = msec(100);
  o.measure = msec(300);
  return o;
}

TEST(ChaosStream, FaultsOffMatchesPlainRunStreamExactly) {
  // The chaos harness with an all-off plan must not perturb the golden
  // event schedule: same seed => bit-identical metrics, auditor on or not.
  const StreamOptions o = short_stream(Es2Config::pi(), /*vm_sends=*/true);
  const StreamResult plain = run_stream(o);
  ChaosStreamOptions co;
  co.stream = o;
  co.audit = true;
  const ChaosStreamResult chaos = run_chaos_stream(co, "faults-off");
  EXPECT_EQ(chaos.report.status, ScenarioStatus::kOk);
  EXPECT_DOUBLE_EQ(chaos.stream.throughput_mbps, plain.throughput_mbps);
  EXPECT_DOUBLE_EQ(chaos.stream.packets_per_sec, plain.packets_per_sec);
  EXPECT_DOUBLE_EQ(chaos.stream.kicks_per_sec, plain.kicks_per_sec);
  EXPECT_EQ(chaos.stream.link_dropped, 0);
  EXPECT_EQ(chaos.fast_retransmits, 0);
  EXPECT_EQ(chaos.tx_watchdog_kicks, 0);
  EXPECT_EQ(chaos.rx_repolls, 0);
  EXPECT_GT(chaos.audit_sweeps, 0u);
  EXPECT_EQ(chaos.audit_violations, 0);
}

TEST(ChaosStream, OnePercentLossCompletesOnAllFourStacks) {
  const std::vector<Es2Config> stacks = {
      Es2Config::baseline(), Es2Config::pi(), Es2Config::pi_h(),
      Es2Config::pi_h_r()};
  for (const Es2Config& config : stacks) {
    ChaosStreamOptions co;
    co.stream = short_stream(config, /*vm_sends=*/false);
    co.faults.link_loss = 0.01;
    co.faults.kick_loss = 0.002;
    co.faults.worker_stall_prob = 0.01;
    const ChaosStreamResult r = run_chaos_stream(co, config.name());
    EXPECT_EQ(r.report.status, ScenarioStatus::kOk) << config.name();
    EXPECT_GT(r.stream.throughput_mbps, 0.0) << config.name();
    EXPECT_GT(r.stream.link_dropped, 0) << config.name();
    EXPECT_EQ(r.audit_violations, 0) << config.name();
  }
}

TEST(ChaosStream, LossTriggersFastRetransmitRecovery) {
  ChaosStreamOptions co;
  co.stream = short_stream(Es2Config::pi(), /*vm_sends=*/false);
  co.faults.link_loss = 0.02;
  const ChaosStreamResult r = run_chaos_stream(co, "fast-rtx");
  EXPECT_EQ(r.report.status, ScenarioStatus::kOk);
  EXPECT_GT(r.fast_retransmits, 0);
  EXPECT_GT(r.stream.throughput_mbps, 0.0);
}

TEST(ChaosStream, TxWatchdogRecoversSwallowedKicks) {
  ChaosStreamOptions co;
  co.stream = short_stream(Es2Config::pi(), /*vm_sends=*/true);
  co.faults.kick_loss = 0.5;
  co.tx_watchdog = true;
  const ChaosStreamResult r = run_chaos_stream(co, "wd-rekick");
  EXPECT_EQ(r.report.status, ScenarioStatus::kOk);
  EXPECT_GT(r.faults.kicks_dropped, 0);
  EXPECT_GT(r.tx_watchdog_kicks, 0);
  EXPECT_GT(r.stream.throughput_mbps, 0.0);
}

TEST(ChaosStream, MissedMsiRecoveredByWatchdogNapiPoll) {
  // Dropping MSIs wedges the RX path under EVENT_IDX suppression (a
  // stale used_event means later completions never re-raise the
  // interrupt); the guest watchdog's missed-interrupt NAPI poll is the
  // recovery. Peer->VM so the lost interrupts are RX completions.
  ChaosStreamOptions co;
  co.stream = short_stream(Es2Config::pi(), /*vm_sends=*/false);
  co.faults.msi_loss = 0.2;
  co.tx_watchdog = true;
  co.budget.max_sim_time = sec(2);
  const ChaosStreamResult r = run_chaos_stream(co, "msi-recover");
  EXPECT_EQ(r.report.status, ScenarioStatus::kOk);
  EXPECT_GT(r.faults.msis_dropped, 0);
  EXPECT_GT(r.rx_watchdog_polls, 0);
  EXPECT_GT(r.stream.throughput_mbps, 0.0);
}

TEST(ChaosStream, UnrecoverableWedgeIsCaughtByTheWatchdog) {
  ChaosStreamOptions co;
  co.stream = short_stream(Es2Config::pi(), /*vm_sends=*/true);
  co.faults.kick_loss = 1.0;  // every kick swallowed
  co.tx_watchdog = false;     // and nobody re-kicks
  co.budget.progress_window = msec(10);
  co.budget.stall_windows = 4;
  co.budget.max_sim_time = sec(2);
  const ChaosStreamResult r = run_chaos_stream(co, "wedge");
  EXPECT_EQ(r.report.status, ScenarioStatus::kNoProgress);
  EXPECT_NE(r.report.to_line().find("WATCHDOG wedge"), std::string::npos);
  EXPECT_EQ(r.stream.throughput_mbps, 0.0);
}

TEST(ChaosStream, SpuriousInterruptsAreAbsorbed) {
  ChaosStreamOptions co;
  co.stream = short_stream(Es2Config::pi(), /*vm_sends=*/true);
  co.faults.spurious_irq_period = usec(200);
  const ChaosStreamResult r = run_chaos_stream(co, "spurious");
  EXPECT_EQ(r.report.status, ScenarioStatus::kOk);
  EXPECT_GT(r.faults.spurious_irqs, 0);
  EXPECT_GT(r.stream.throughput_mbps, 0.0);
  EXPECT_EQ(r.audit_violations, 0);
}

TEST(ChaosStream, SameSeedSamePlanIsDeterministic) {
  ChaosStreamOptions co;
  co.stream = short_stream(Es2Config::pi_h(), /*vm_sends=*/false);
  co.faults.link_loss = 0.01;
  co.faults.kick_delay_prob = 0.2;
  const ChaosStreamResult a = run_chaos_stream(co, "det");
  const ChaosStreamResult b = run_chaos_stream(co, "det");
  EXPECT_DOUBLE_EQ(a.stream.throughput_mbps, b.stream.throughput_mbps);
  EXPECT_EQ(a.stream.link_dropped, b.stream.link_dropped);
  EXPECT_EQ(a.faults.kicks_delayed, b.faults.kicks_delayed);
  EXPECT_EQ(a.fast_retransmits, b.fast_retransmits);
}

}  // namespace
}  // namespace es2
