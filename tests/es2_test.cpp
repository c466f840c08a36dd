// Unit tests for the ES2 core: configuration, the vCPU status tracker, and
// the intelligent interrupt redirection policies.
#include <gtest/gtest.h>

#include "es2/es2.h"
#include "harness/testbed.h"

namespace es2 {
namespace {

TEST(Es2Config, NamesMatchPaperStacks) {
  EXPECT_EQ(Es2Config::baseline().name(), "Baseline");
  EXPECT_EQ(Es2Config::pi().name(), "PI");
  EXPECT_EQ(Es2Config::pi_h().name(), "PI+H");
  EXPECT_EQ(Es2Config::pi_h_r().name(), "PI+H+R");
}

TEST(Es2Config, IrqModeFollowsPiFlag) {
  EXPECT_EQ(Es2Config::baseline().irq_mode(), InterruptVirtMode::kEmulatedLapic);
  EXPECT_EQ(Es2Config::pi().irq_mode(), InterruptVirtMode::kPostedInterrupt);
}

TEST(Es2Config, All4Progression) {
  const Es2Config* all = Es2Config::all4();
  EXPECT_FALSE(all[0].posted_interrupts);
  EXPECT_TRUE(all[1].posted_interrupts && !all[1].hybrid_io);
  EXPECT_TRUE(all[2].hybrid_io && !all[2].redirection);
  EXPECT_TRUE(all[3].redirection);
}

/// Builds a 2-VM x 2-vCPU stacked world where vCPU online state is easy to
/// drive: both VMs' vCPU j pin to core j.
struct TrackerWorld {
  TrackerWorld() {
    TestbedOptions o;
    o.config = Es2Config::pi_h_r();
    o.num_vms = 2;
    o.vcpus_per_vm = 2;
    o.stack_vms = true;
    o.host_cores = 6;
    o.vhost_core = 4;
    tb = std::make_unique<Testbed>(std::move(o));
  }
  std::unique_ptr<Testbed> tb;
};

TEST(Tracker, StartsAllOffline) {
  TrackerWorld w;
  auto& tracker = w.tb->es2().redirector()->tracker(w.tb->tested_vm());
  EXPECT_TRUE(tracker.online().empty());
  ASSERT_EQ(tracker.offline().size(), 2u);
  EXPECT_EQ(tracker.offline().front(), 0);
}

TEST(Tracker, TracksOnlineAfterStart) {
  TrackerWorld w;
  w.tb->start();
  w.tb->sim().run_for(msec(50));
  auto& tracker = w.tb->es2().redirector()->tracker(w.tb->tested_vm());
  // With 2 VMs stacking 2 cores, each VM averages one online vCPU.
  EXPECT_GE(tracker.online().size() + tracker.offline().size(), 2u);
  EXPECT_EQ(tracker.online().size() + tracker.offline().size(), 2u);
  EXPECT_GT(tracker.transitions(), 10);
}

TEST(Tracker, OfflineListOrderedByDescheduleTime) {
  TrackerWorld w;
  w.tb->start();
  w.tb->sim().run_for(sec(1));
  auto& tracker = w.tb->es2().redirector()->tracker(w.tb->tested_vm());
  // Run until both vCPUs are offline at the same moment, then the head
  // must be the one descheduled first. We verify the invariant
  // structurally: offline list has no duplicates and unions to all vcpus.
  std::vector<bool> seen(2, false);
  for (const int v : tracker.offline()) {
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
  for (const int v : tracker.online()) {
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1]);
}

TEST(Tracker, CountsInterruptsPerVcpu) {
  TrackerWorld w;
  auto& tracker = w.tb->es2().redirector()->tracker(w.tb->tested_vm());
  tracker.count_interrupt(1);
  tracker.count_interrupt(1);
  tracker.count_interrupt(0);
  EXPECT_EQ(tracker.interrupts(0), 1);
  EXPECT_EQ(tracker.interrupts(1), 2);
}

TEST(Tracker, StickyClearsOnDeschedule) {
  TrackerWorld w;
  w.tb->start();
  w.tb->sim().run_for(msec(20));
  auto& tracker = w.tb->es2().redirector()->tracker(w.tb->tested_vm());
  if (!tracker.online().empty()) {
    const int target = tracker.online().front();
    tracker.set_sticky_target(target);
    // Run until that vCPU is descheduled at least once.
    w.tb->sim().run_for(msec(50));
    if (!tracker.is_online(target)) {
      EXPECT_EQ(tracker.sticky_target(), -1);
    }
  }
}

TEST(Redirector, UpVmKeepsAffinity) {
  Simulator sim(1);
  KvmHost host(sim, 2);
  InterruptRedirector redirector(host, RedirectPolicy::kPaper);
  Vm& vm = host.create_vm("up", {0}, InterruptVirtMode::kPostedInterrupt);
  redirector.track(vm);
  const int dest = redirector.select_target(
      vm, {0x40, 0, DeliveryMode::kLowestPriority});
  EXPECT_EQ(dest, 0);
}

TEST(Redirector, PrefersOnlineOverOfflinePrediction) {
  TrackerWorld w;
  w.tb->start();
  w.tb->sim().run_for(msec(30));
  auto* red = w.tb->es2().redirector();
  auto& tracker = red->tracker(w.tb->tested_vm());
  const MsiMessage msi{0x40, 0, DeliveryMode::kLowestPriority};
  const int dest = red->select_target(w.tb->tested_vm(), msi);
  if (!tracker.online().empty()) {
    EXPECT_TRUE(tracker.is_online(dest));
  } else {
    EXPECT_EQ(dest, tracker.offline().front());
  }
}

TEST(Redirector, StickyTargetReused) {
  TrackerWorld w;
  w.tb->start();
  w.tb->sim().run_for(msec(30));
  auto* red = w.tb->es2().redirector();
  auto& tracker = red->tracker(w.tb->tested_vm());
  if (tracker.online().empty()) GTEST_SKIP() << "no online vCPU at probe";
  const MsiMessage msi{0x40, 0, DeliveryMode::kLowestPriority};
  const int first = red->select_target(w.tb->tested_vm(), msi);
  const int second = red->select_target(w.tb->tested_vm(), msi);
  EXPECT_EQ(first, second);
  EXPECT_GE(red->via_sticky(), 1);
}

TEST(Redirector, LightestLoadBalancesWithoutSticky) {
  Simulator sim(1);
  KvmHost host(sim, 4);
  InterruptRedirector redirector(host, RedirectPolicy::kNoSticky);
  Vm& vm = host.create_vm("smp", {0, 1}, InterruptVirtMode::kPostedInterrupt);
  redirector.track(vm);
  auto& tracker = redirector.tracker(vm);
  // Make both vCPUs appear online via direct counting of a fabricated
  // state: use the real scheduler by starting the VM on dedicated cores.
  class Idle final : public GuestCpu {
   public:
    explicit Idle(Vm& vm) : vm_(vm) { vm.set_guest(this); }
    void run(int i) override {
      vm_.vcpu(i).guest_exec(1150000, [this, i] { run(i); });
    }
    void take_interrupt(int i, Vector) override {
      Vcpu& v = vm_.vcpu(i);
      v.guest_exec(1000, [&v] { v.guest_eoi([&v] { v.irq_done(); }); });
    }
    Vm& vm_;
  } guest(vm);
  vm.set_timer_hz(0);
  vm.start();
  sim.run_for(msec(5));
  ASSERT_EQ(tracker.online().size(), 2u);  // dedicated cores: both online
  const MsiMessage msi{0x40, 0, DeliveryMode::kLowestPriority};
  const int a = redirector.select_target(vm, msi);
  const int b = redirector.select_target(vm, msi);
  const int c = redirector.select_target(vm, msi);
  // Least-loaded alternates: a then the other, then back.
  EXPECT_NE(a, b);
  EXPECT_EQ(c, a);
}

TEST(Redirector, RoundRobinPolicyRotates) {
  Simulator sim(1);
  KvmHost host(sim, 4);
  InterruptRedirector redirector(host, RedirectPolicy::kRoundRobin);
  Vm& vm = host.create_vm("smp", {0, 1}, InterruptVirtMode::kPostedInterrupt);
  redirector.track(vm);
  class Idle final : public GuestCpu {
   public:
    explicit Idle(Vm& vm) : vm_(vm) { vm.set_guest(this); }
    void run(int i) override {
      vm_.vcpu(i).guest_exec(1150000, [this, i] { run(i); });
    }
    void take_interrupt(int i, Vector) override {
      Vcpu& v = vm_.vcpu(i);
      v.guest_exec(1000, [&v] { v.guest_eoi([&v] { v.irq_done(); }); });
    }
    Vm& vm_;
  } guest(vm);
  vm.set_timer_hz(0);
  vm.start();
  sim.run_for(msec(5));
  const MsiMessage msi{0x40, 0, DeliveryMode::kLowestPriority};
  const int a = redirector.select_target(vm, msi);
  const int b = redirector.select_target(vm, msi);
  EXPECT_NE(a, b);
}

TEST(Es2System, EnableForChecksIrqModeMatch) {
  TestbedOptions o;
  o.config = Es2Config::pi_h_r();
  Testbed tb(std::move(o));
  // Construction already called enable_for successfully.
  EXPECT_NE(tb.es2().redirector(), nullptr);
  EXPECT_EQ(tb.backend().poll_quota(), tb.options().config.poll_quota);
}

TEST(Es2System, BaselineHasNoRedirectorAndNoQuota) {
  TestbedOptions o;
  o.config = Es2Config::baseline();
  Testbed tb(std::move(o));
  EXPECT_EQ(tb.es2().redirector(), nullptr);
  EXPECT_EQ(tb.backend().poll_quota(), 0);
}

}  // namespace
}  // namespace es2
