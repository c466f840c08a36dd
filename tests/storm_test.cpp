// Overload-resilience tests: the receive-livelock verdict (a storm-wedged
// guest is flagged kLivelock, not a generic kNoProgress), the watchdog's
// stall tolerance, the graceful-degradation ladder clearing the livelock
// with goodput retained, calm-ramp passivity of the mitigation machinery,
// bounded-container overflow accounting, and same-seed determinism of
// storm runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "harness/experiments.h"
#include "harness/runner.h"
#include "sim/simulator.h"

namespace es2 {
namespace {

// ---------------------------------------------------------------------------
// ScenarioWatchdog: stall tolerance + livelock classification
// ---------------------------------------------------------------------------

TEST(StallTolerance, TrickleWithinToleranceCountsAsStall) {
  Simulator sim(1);
  // Progress trickles +1 per window: under the strict rule that is alive,
  // under a tolerance of 2 it is a stall.
  std::int64_t progress = 0;
  PeriodicTimer ticker(sim, usec(100), [&] { ++progress; });
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;
  budget.stall_tolerance = 2;
  ScenarioWatchdog wd(sim, budget);
  EXPECT_FALSE(wd.run_for(msec(10), [&] { return progress; }));
  EXPECT_EQ(wd.status(), ScenarioStatus::kNoProgress);
}

TEST(StallTolerance, ZeroToleranceKeepsStrictRule) {
  Simulator sim(1);
  std::int64_t progress = 0;
  PeriodicTimer ticker(sim, usec(100), [&] { ++progress; });
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;  // stall_tolerance stays 0
  ScenarioWatchdog wd(sim, budget);
  EXPECT_TRUE(wd.run_for(msec(5), [&] { return progress; }));
  EXPECT_TRUE(wd.ok());
}

TEST(StallTolerance, RateAboveTolerancePasses) {
  Simulator sim(1);
  std::int64_t progress = 0;
  PeriodicTimer ticker(sim, usec(20), [&] { ++progress; });  // +5 per window
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;
  budget.stall_tolerance = 2;
  ScenarioWatchdog wd(sim, budget);
  EXPECT_TRUE(wd.run_for(msec(5), [&] { return progress; }));
  EXPECT_TRUE(wd.ok());
}

TEST(LivelockVerdict, StallWithClimbingActivityIsLivelock) {
  Simulator sim(1);
  std::int64_t activity = 0;
  PeriodicTimer ticker(sim, usec(10), [&] { ++activity; });
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;
  ScenarioWatchdog wd(sim, budget);
  wd.set_activity_probe([&] { return activity; });
  EXPECT_FALSE(wd.run_for(msec(10), [] { return std::int64_t{7}; }));
  EXPECT_EQ(wd.status(), ScenarioStatus::kLivelock);
}

TEST(LivelockVerdict, StallWithFlatActivityStaysNoProgress) {
  Simulator sim(1);
  // Events churn (the ticker) but the activity probe itself is flat: a
  // wedge, not a livelock.
  PeriodicTimer ticker(sim, usec(10), [] {});
  ticker.start();
  ScenarioBudget budget;
  budget.progress_window = usec(100);
  budget.stall_windows = 4;
  ScenarioWatchdog wd(sim, budget);
  wd.set_activity_probe([] { return std::int64_t{1}; });
  EXPECT_FALSE(wd.run_for(msec(10), [] { return std::int64_t{7}; }));
  EXPECT_EQ(wd.status(), ScenarioStatus::kNoProgress);
}

// ---------------------------------------------------------------------------
// run_storm integration
// ---------------------------------------------------------------------------

// A collapse-grade flash crowd, shortened for test runtime: the peak rate
// outruns the guest's NAPI drain ceiling (~250k pps of data-bearing SYNs)
// for long enough that the off-arm holds >8 stalled watchdog windows.
StormOptions collapse_options(bool mitigation) {
  StormOptions o;
  o.config = Es2Config::baseline();
  o.mitigation = mitigation;
  o.shape.base_rate = 4000;
  o.shape.peak_rate = 400000;
  o.shape.ramp_up = msec(100);
  o.shape.hold = msec(550);
  o.shape.ramp_down = msec(100);
  o.cooldown = msec(150);
  o.syn_payload = 256;
  o.expect_livelock = !mitigation;
  o.budget.max_sim_time = sec(5);
  return o;
}

StormOptions calm_options(bool mitigation) {
  StormOptions o;
  o.config = Es2Config::baseline();
  o.mitigation = mitigation;
  o.shape.base_rate = 1000;
  o.shape.peak_rate = 3000;
  o.shape.ramp_up = msec(100);
  o.shape.hold = msec(200);
  o.shape.ramp_down = msec(100);
  o.cooldown = msec(100);
  o.budget.max_sim_time = sec(5);
  return o;
}

TEST(Storm, CollapseWithoutMitigationIsLivelockNotWedge) {
  const StormResult r = run_storm(collapse_options(/*mitigation=*/false),
                                  "storm_off");
  // The whole point: the overload wedge classifies as receive livelock
  // (activity climbing while the app starves), not as a generic wedge.
  EXPECT_TRUE(r.livelocked);
  EXPECT_EQ(r.report.status, ScenarioStatus::kLivelock);
  EXPECT_NE(r.report.status, ScenarioStatus::kNoProgress);
  EXPECT_TRUE(r.acceptable());  // expected-livelock cells are acceptable
  // Load shed at the modeled finite queues, and every drop is attributed.
  EXPECT_GT(r.drops.sock_backlog, 0);
  EXPECT_GT(r.drops.syn_backlog, 0);
  EXPECT_GT(r.drops.total(), 0);
  // Mitigation off: the ladder never engages.
  EXPECT_EQ(r.overload_max_rung, 0);
  EXPECT_EQ(r.livelock_detections, 0);
  EXPECT_EQ(r.episodes, 0);
  // Client-side finite pending table overflowed and counted it.
  EXPECT_GT(r.client_pending_overflows, 0);
  // The vhost work list stayed bounded while 400k pps were offered.
  EXPECT_GT(r.worker_active_high_water, 0u);
  EXPECT_LE(r.worker_active_high_water, 64u);
}

TEST(Storm, MitigationClearsLivelockAndRetainsGoodput) {
  const StormResult off = run_storm(collapse_options(/*mitigation=*/false),
                                    "storm_off");
  const StormResult on = run_storm(collapse_options(/*mitigation=*/true),
                                   "storm_on");
  ASSERT_TRUE(off.livelocked);
  // The mitigated arm survives supervision: no livelock verdict.
  EXPECT_TRUE(on.report.ok()) << on.report.detail;
  EXPECT_FALSE(on.livelocked);
  // The detector fired and the ladder engaged at least rung 1.
  EXPECT_GT(on.livelock_detections, 0);
  EXPECT_GE(on.overload_max_rung, 1);
  EXPECT_GT(on.ksoftirqd_polls, 0);
  // Every livelock episode in the ledger recovered (MTTR is measurable).
  EXPECT_GT(on.episodes, 0);
  EXPECT_EQ(on.episodes_recovered, on.episodes);
  EXPECT_GT(on.mttr_p50, 0);
  // Graceful degradation: >= 2x the establishments of the collapsed arm
  // over the identical measured span.
  EXPECT_GE(on.established, 2 * off.established);
  EXPECT_GE(on.served, 2 * off.served);
}

TEST(Storm, MitigatedCollapseKeepsTheEventWorkingSetSmall) {
  // Every SYN arms a 50 ms retransmission timer. On a delay line only the
  // earliest is filed in the event core, so the live-record peak stays
  // with the model's own few hundred events instead of one record per
  // outstanding SYN (~65k at this ramp when each was its own event).
  const StormResult r = run_storm(collapse_options(/*mitigation=*/true),
                                  "storm_on");
  EXPECT_GT(r.retries, 10000);
  EXPECT_LT(r.metrics->value("eventcore.peak_live"), 1000.0);
  EXPECT_EQ(r.metrics->value("eventcore.boxed_callbacks"), 0.0);
}

TEST(Storm, CalmRampMitigationIsPassive) {
  const StormResult off = run_storm(calm_options(/*mitigation=*/false),
                                    "calm_off");
  const StormResult on = run_storm(calm_options(/*mitigation=*/true),
                                   "calm_on");
  EXPECT_TRUE(off.report.ok()) << off.report.detail;
  EXPECT_TRUE(on.report.ok()) << on.report.detail;
  // No storm, no detector activity, no shedding.
  EXPECT_EQ(on.livelock_detections, 0);
  EXPECT_EQ(on.overload_max_rung, 0);
  EXPECT_EQ(on.episodes, 0);
  EXPECT_EQ(on.drops.total(), 0);
  // Armed-but-idle mitigation must not perturb the workload's results.
  EXPECT_EQ(on.attempted, off.attempted);
  EXPECT_EQ(on.established, off.established);
  EXPECT_EQ(on.served, off.served);
}

TEST(Storm, SameSeedRunsAreIdentical) {
  StormOptions o = collapse_options(/*mitigation=*/true);
  o.shape.hold = msec(250);  // shorter: equality is the assertion here
  const StormResult a = run_storm(o, "det_a");
  const StormResult b = run_storm(o, "det_b");
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.established, b.established);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.accepts, b.accepts);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.drops.total(), b.drops.total());
  EXPECT_EQ(a.drops.sock_backlog, b.drops.sock_backlog);
  EXPECT_EQ(a.drops.syn_backlog, b.drops.syn_backlog);
  EXPECT_EQ(a.livelock_detections, b.livelock_detections);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.ksoftirqd_polls, b.ksoftirqd_polls);
  EXPECT_EQ(static_cast<int>(a.report.status),
            static_cast<int>(b.report.status));
}

}  // namespace
}  // namespace es2
