// Unit tests for the VM layer: exit accounting, the vCPU event-path state
// machine under both interrupt modes, HLT, the MSI router, and the
// "no redirection of per-vCPU vectors" safety rule.
#include <gtest/gtest.h>

#include <memory>

#include "vm/vm.h"

namespace es2 {
namespace {

/// Minimal guest: runs a busy loop; takes interrupts with a fixed handler
/// cost; can be told to issue kicks or halt.
class StubGuest final : public GuestCpu {
 public:
  explicit StubGuest(Vm& vm) : vm_(vm) { vm.set_guest(this); }

  void run(int vcpu_index) override {
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    if (halt_when_idle_) {
      vcpu.guest_halt();
      return;
    }
    ++work_units_;
    if (kicks_to_issue_ > 0) {
      --kicks_to_issue_;
      vcpu.guest_exec(2300, [this, &vcpu] {
        vcpu.guest_io_kick([this] { ++notifies_; },
                           [this, &vcpu] { run(vcpu.index()); });
      });
      return;
    }
    vcpu.guest_exec(115000 /* 50us */, [this, &vcpu] { run(vcpu.index()); });
  }

  void take_interrupt(int vcpu_index, Vector vector) override {
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    ++irqs_;
    last_vector_ = vector;
    irq_vcpu_ = vcpu_index;
    vcpu.guest_exec(4600 /* 2us handler */, [&vcpu] {
      vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
    });
  }

  Vm& vm_;
  int work_units_ = 0;
  int irqs_ = 0;
  int notifies_ = 0;
  int kicks_to_issue_ = 0;
  bool halt_when_idle_ = false;
  Vector last_vector_ = 0;
  int irq_vcpu_ = -1;
};

struct World {
  explicit World(InterruptVirtMode mode, int vcpus = 1, std::uint64_t seed = 1)
      : sim(seed), host(sim, 8) {
    std::vector<int> pins;
    for (int i = 0; i < vcpus; ++i) pins.push_back(i);
    vm = &host.create_vm("vm", pins, mode);
    vm->set_timer_hz(0);  // tests control interrupts explicitly
    guest = std::make_unique<StubGuest>(*vm);
  }
  Simulator sim;
  KvmHost host;
  Vm* vm;
  std::unique_ptr<StubGuest> guest;
};

/// Runs one long guest work segment, then idles in HLT; each interrupt
/// costs a short handler segment plus the EOI.
class OneSegmentGuest final : public GuestCpu {
 public:
  static constexpr Cycles kWork = 115000;   // 50us
  static constexpr Cycles kHandler = 4600;  // 2us

  explicit OneSegmentGuest(Vm& vm) : vm_(vm) { vm.set_guest(this); }

  void run(int vcpu_index) override {
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    if (worked_) {
      vcpu.guest_halt();
      return;
    }
    worked_ = true;
    vcpu.guest_exec(kWork, [&vcpu] { vcpu.guest_halt(); });
  }

  void take_interrupt(int vcpu_index, Vector) override {
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    vcpu.guest_exec(kHandler, [&vcpu] {
      vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
    });
  }

 private:
  Vm& vm_;
  bool worked_ = false;
};

TEST(Vcpu, SuspendedGuestSegmentAccountsItsFullSpanOnce) {
  // A posted interrupt suspends the work segment 20us in; the handler
  // runs and the segment resumes. Its full 50us must reach guest time
  // exactly once, and the entry and HLT exit segments host time.
  Simulator sim;
  CostModel costs;
  costs.other_exit_period = 0;  // no background exits
  KvmHost host(sim, 2, costs);
  Vm& vm = host.create_vm("vm", {0}, InterruptVirtMode::kPostedInterrupt);
  vm.set_timer_hz(0);
  OneSegmentGuest guest(vm);
  vm.start();
  Vcpu& vcpu = vm.vcpu(0);
  sim.run_for(usec(20));
  ASSERT_TRUE(vcpu.in_guest());
  ASSERT_TRUE(vcpu.thread().has_active_segment());
  vcpu.deliver_interrupt(0x41);
  sim.run_for(msec(1));
  ASSERT_TRUE(vcpu.halted());
  EXPECT_EQ(vcpu.irqs_taken(), 1);
  const CostModel& c = host.costs();
  EXPECT_EQ(vcpu.stats().guest_time(),
            c.ns(OneSegmentGuest::kWork) + c.ns(c.pi_sync_deliver) +
                c.ns(c.guest_irq_dispatch) + c.ns(OneSegmentGuest::kHandler) +
                c.ns(c.pi_virtual_eoi));
  EXPECT_EQ(vcpu.stats().host_time(),
            c.ns(c.entry_transition) + c.ns(c.exit_transition + c.handle_hlt));
  // Every nanosecond the vCPU thread ran was one segment's span.
  EXPECT_EQ(vcpu.stats().guest_time() + vcpu.stats().host_time(),
            vcpu.thread().cpu_time());
}

TEST(Vcpu, IoKickTriggersExactlyOneIoExit) {
  World w(InterruptVirtMode::kEmulatedLapic);
  w.guest->kicks_to_issue_ = 5;
  w.host.costs();
  w.vm->start();
  w.sim.run_for(msec(5));
  EXPECT_EQ(w.vm->vcpu(0).stats().count(ExitReason::kIoInstruction), 5);
  EXPECT_EQ(w.guest->notifies_, 5);
}

TEST(Vcpu, EmulatedInterruptCostsTwoExits) {
  // Delivery to a running guest: EXTERNAL_INTERRUPT (kick IPI) +
  // APIC_ACCESS (EOI) — the paper's Fig. 1 pattern.
  World w(InterruptVirtMode::kEmulatedLapic);
  w.vm->start();
  w.sim.run_for(msec(1));
  auto& vcpu = w.vm->vcpu(0);
  const auto ext_before = vcpu.stats().count(ExitReason::kExternalInterrupt);
  const auto apic_before = vcpu.stats().count(ExitReason::kApicAccess);
  vcpu.deliver_interrupt(0x41);
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irqs_, 1);
  EXPECT_EQ(vcpu.stats().count(ExitReason::kExternalInterrupt), ext_before + 1);
  EXPECT_EQ(vcpu.stats().count(ExitReason::kApicAccess), apic_before + 1);
}

TEST(Vcpu, PostedInterruptCostsZeroExits) {
  World w(InterruptVirtMode::kPostedInterrupt);
  w.vm->start();
  w.sim.run_for(msec(1));
  auto& vcpu = w.vm->vcpu(0);
  const auto total_before = vcpu.stats().total();
  vcpu.deliver_interrupt(0x41);
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irqs_, 1);
  // Only background noise exits may have occurred; none of the interrupt
  // kinds.
  EXPECT_EQ(vcpu.stats().count(ExitReason::kExternalInterrupt), 0);
  EXPECT_EQ(vcpu.stats().count(ExitReason::kApicAccess), 0);
  EXPECT_GE(vcpu.stats().total(), total_before);
}

TEST(Vcpu, InterruptToHostModeVcpuSkipsKickExit) {
  // Post while the vCPU handles another exit: injection at the next entry,
  // no EXTERNAL_INTERRUPT exit — why the paper's Table I shows fewer
  // delivery than completion exits.
  World w(InterruptVirtMode::kEmulatedLapic);
  w.guest->kicks_to_issue_ = 1000000;  // guest constantly exits
  w.vm->start();
  w.sim.run_for(msec(2));
  auto& vcpu = w.vm->vcpu(0);
  vcpu.stats().begin_window(w.sim.now());
  // Deliver lots of interrupts at random-ish points; many land in host mode.
  for (int i = 0; i < 50; ++i) {
    w.sim.after(usec(37) * (i + 1), [&vcpu] { vcpu.deliver_interrupt(0x41); });
  }
  w.sim.run_for(msec(10));
  const auto delivery = vcpu.stats().count(ExitReason::kExternalInterrupt);
  const auto completion = vcpu.stats().count(ExitReason::kApicAccess);
  EXPECT_EQ(completion, 50);
  EXPECT_LT(delivery, completion);
}

TEST(Vcpu, HaltBlocksUntilInterrupt) {
  World w(InterruptVirtMode::kEmulatedLapic);
  w.guest->halt_when_idle_ = true;
  w.vm->start();
  w.sim.run_for(msec(1));
  auto& vcpu = w.vm->vcpu(0);
  EXPECT_TRUE(vcpu.halted());
  EXPECT_EQ(vcpu.thread().state(), SimThread::State::kBlocked);
  EXPECT_EQ(vcpu.stats().count(ExitReason::kHlt), 1);
  vcpu.deliver_interrupt(0x41);
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irqs_, 1);
  EXPECT_TRUE(vcpu.halted());  // back to idle after the handler
}

TEST(Vcpu, PostedInterruptWakesHaltedVcpu) {
  World w(InterruptVirtMode::kPostedInterrupt);
  w.guest->halt_when_idle_ = true;
  w.vm->start();
  w.sim.run_for(msec(1));
  auto& vcpu = w.vm->vcpu(0);
  ASSERT_TRUE(vcpu.halted());
  vcpu.deliver_interrupt(0x55);
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irqs_, 1);
  EXPECT_EQ(w.guest->last_vector_, 0x55);
}

TEST(Vcpu, TigReflectsGuestShare) {
  World w(InterruptVirtMode::kEmulatedLapic);
  w.vm->start();
  w.sim.run_for(msec(10));
  auto& stats = w.vm->vcpu(0).stats();
  // Pure busy loop with only noise exits: TIG should be very high.
  EXPECT_GT(stats.tig_percent(), 97.0);
  EXPECT_LT(stats.tig_percent(), 100.0);
}

TEST(Vcpu, KickLoweredTigVsPureCompute) {
  World compute(InterruptVirtMode::kEmulatedLapic, 1, 3);
  compute.vm->start();
  compute.sim.run_for(msec(20));
  World kicker(InterruptVirtMode::kEmulatedLapic, 1, 3);
  kicker.guest->kicks_to_issue_ = 1000000;
  kicker.vm->start();
  kicker.sim.run_for(msec(20));
  EXPECT_LT(kicker.vm->vcpu(0).stats().tig_percent(),
            compute.vm->vcpu(0).stats().tig_percent() - 10.0);
}

TEST(Vcpu, NoiseExitsPopulateOthersBucket) {
  World w(InterruptVirtMode::kPostedInterrupt);
  w.vm->start();
  w.sim.run_for(msec(100));
  const auto& stats = w.vm->vcpu(0).stats();
  EXPECT_GT(stats.count(ExitReason::kEptViolation) +
                stats.count(ExitReason::kOther),
            50);
  EXPECT_GT(stats.others_rate(w.sim.now()), 500.0);
}

TEST(Vm, GuestTimerDeliversPerVcpuTimerVector) {
  World w(InterruptVirtMode::kEmulatedLapic);
  w.vm->set_timer_hz(1000);
  w.vm->start();
  w.sim.run_for(msec(20));
  EXPECT_GE(w.guest->irqs_, 15);
  EXPECT_EQ(w.guest->last_vector_, kLocalTimerVector);
}

TEST(ExitStats, WindowResetsRates) {
  World w(InterruptVirtMode::kEmulatedLapic);
  w.guest->kicks_to_issue_ = 100;
  w.vm->start();
  w.sim.run_for(msec(5));
  auto& stats = w.vm->vcpu(0).stats();
  EXPECT_EQ(stats.count(ExitReason::kIoInstruction), 100);
  stats.begin_window(w.sim.now());
  EXPECT_EQ(stats.count(ExitReason::kIoInstruction), 0);
  EXPECT_DOUBLE_EQ(stats.rate(ExitReason::kIoInstruction, w.sim.now()), 0.0);
}

TEST(ExitStats, SummaryMentionsCausesAndTig) {
  ExitStats stats;
  stats.record_exit(ExitReason::kIoInstruction);
  stats.spans().add(70, true);
  stats.spans().add(30, false);
  const std::string s = stats.summary(kSecond);
  EXPECT_NE(s.find("io_instruction"), std::string::npos);
  EXPECT_NE(s.find("TIG=70.0%"), std::string::npos);
}

TEST(IrqRouter, RoutesToAffinityWithoutInterceptor) {
  World w(InterruptVirtMode::kEmulatedLapic, 2);
  w.vm->start();
  w.sim.run_for(msec(1));
  MsiMessage msi{0x44, 1, DeliveryMode::kLowestPriority};
  w.host.router().deliver_msi(*w.vm, msi);
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irq_vcpu_, 1);
  EXPECT_EQ(w.host.router().delivered(), 1);
  EXPECT_EQ(w.host.router().redirected(), 0);
}

TEST(IrqRouter, InterceptorRewritesDeviceVectors) {
  World w(InterruptVirtMode::kEmulatedLapic, 2);
  w.host.router().set_interceptor([](Vm&, const MsiMessage&) { return 0; });
  w.vm->start();
  w.sim.run_for(msec(1));
  w.host.router().deliver_msi(*w.vm,
                              {0x44, 1, DeliveryMode::kLowestPriority});
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irq_vcpu_, 0);
  EXPECT_EQ(w.host.router().redirected(), 1);
}

TEST(IrqRouter, NeverOffersTimerVectorToInterceptor) {
  // Redirecting a per-vCPU vector could crash the guest (paper §V-C): the
  // router must not even consult the interceptor for them.
  World w(InterruptVirtMode::kEmulatedLapic, 2);
  int consulted = 0;
  w.host.router().set_interceptor([&](Vm&, const MsiMessage&) {
    ++consulted;
    return 0;
  });
  w.vm->start();
  w.sim.run_for(msec(1));
  w.host.router().deliver_msi(
      *w.vm, {kLocalTimerVector, 1, DeliveryMode::kFixed});
  w.sim.run_for(msec(1));
  EXPECT_EQ(consulted, 0);
  EXPECT_EQ(w.guest->irq_vcpu_, 1);  // delivered to its own vCPU
}

TEST(IrqRouter, NegativeInterceptorKeepsAffinity) {
  World w(InterruptVirtMode::kEmulatedLapic, 2);
  w.host.router().set_interceptor([](Vm&, const MsiMessage&) { return -1; });
  w.vm->start();
  w.sim.run_for(msec(1));
  w.host.router().deliver_msi(*w.vm,
                              {0x44, 1, DeliveryMode::kLowestPriority});
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.guest->irq_vcpu_, 1);
  EXPECT_EQ(w.host.router().redirected(), 0);
}

TEST(Vm, AggregateStatsSumsVcpus) {
  World w(InterruptVirtMode::kEmulatedLapic, 2);
  w.guest->kicks_to_issue_ = 10;
  w.vm->start();
  w.sim.run_for(msec(5));
  const ExitStats agg = w.vm->aggregate_stats();
  EXPECT_EQ(agg.count(ExitReason::kIoInstruction), 10);
}

}  // namespace
}  // namespace es2
