// Unit tests for the guest OS model: task scheduling, IRQ dispatch, NAPI,
// the virtio-net front-end driver, and backpressure handling.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/burn.h"
#include "guest/guest_os.h"
#include "guest/virtio_net.h"
#include "harness/testbed.h"

namespace es2 {
namespace {

/// A task that counts its work units; optionally blocks after N units.
class TickTask final : public GuestTask {
 public:
  TickTask(GuestOs& os, int vcpu, int stop_after = -1,
           bool low_priority = false)
      : GuestTask(os, "tick", vcpu, low_priority), stop_after_(stop_after) {}

  void run_unit(Vcpu& vcpu) override {
    vcpu.guest_exec(23000 /* 10us */, [this, &vcpu] {
      ++units;
      if (stop_after_ > 0 && units >= stop_after_) block_self();
      os().task_done(vcpu);
    });
  }

  int units = 0;

 private:
  int stop_after_;
};

struct GuestWorld {
  explicit GuestWorld(int vcpus = 1, std::uint64_t seed = 1) {
    TestbedOptions o;
    o.config = Es2Config::pi();
    o.vcpus_per_vm = vcpus;
    o.cpu_burn = false;  // tests add their own tasks
    o.seed = seed;
    tb = std::make_unique<Testbed>(std::move(o));
  }
  std::unique_ptr<Testbed> tb;
  GuestOs& os() { return tb->guest(); }
};

TEST(GuestOs, IdleGuestHalts) {
  GuestWorld w;
  w.tb->start();
  // 3.5ms sits between guest timer ticks (2ms, 6ms) so the vCPU is idle.
  w.tb->sim().run_for(msec(3) + usec(500));
  EXPECT_TRUE(w.tb->tested_vm().vcpu(0).halted());
  EXPECT_GE(w.tb->tested_vm().vcpu(0).stats().count(ExitReason::kHlt), 1);
}

TEST(GuestOs, RunsAffineTaskOnly) {
  GuestWorld w(2);
  TickTask t0(w.os(), 0);
  TickTask t1(w.os(), 1);
  w.os().add_task(t0);
  w.os().add_task(t1);
  w.tb->start();
  w.tb->sim().run_for(msec(10));
  EXPECT_GT(t0.units, 100);
  EXPECT_GT(t1.units, 100);
}

TEST(GuestOs, RoundRobinsEqualTasks) {
  GuestWorld w;
  TickTask a(w.os(), 0), b(w.os(), 0);
  w.os().add_task(a);
  w.os().add_task(b);
  w.tb->start();
  w.tb->sim().run_for(msec(50));
  EXPECT_NEAR(a.units, b.units, a.units / 10 + 2);
}

/// Logs the order in which the guest scheduler picks tasks, per vCPU.
class PickLogTask final : public GuestTask {
 public:
  PickLogTask(GuestOs& os, int id, int vcpu, std::vector<std::string>& log,
              int stop_after = -1, bool low_priority = false)
      : GuestTask(os, "pick" + std::to_string(id), vcpu, low_priority),
        id_(id),
        log_(log),
        stop_after_(stop_after) {}

  void run_unit(Vcpu& vcpu) override {
    log_[static_cast<std::size_t>(vcpu.index())] += std::to_string(id_);
    vcpu.guest_exec(23000 /* 10us */, [this, &vcpu] {
      if (++units_ == stop_after_) block_self();
      os().task_done(vcpu);
    });
  }

 private:
  int id_;
  std::vector<std::string>& log_;
  int stop_after_;
  int units_ = 0;
};

TEST(GuestOs, PickTaskOrderIsRoundRobinPerVcpu) {
  // Tasks 0-4 alternate between vCPUs 0 and 1; task 2 is a burn task,
  // tasks 0, 3 and 4 block after a few units, and task 5 joins vCPU 1
  // after picking began. vCPU 1 never owns task 0, the cursor's initial
  // value. The expected sequences pin the scheduler's exact order.
  GuestWorld w(2);
  std::vector<std::string> log(2);
  PickLogTask t0(w.os(), 0, 0, log, /*stop_after=*/3);
  PickLogTask t1(w.os(), 1, 1, log);
  PickLogTask t2(w.os(), 2, 0, log, -1, /*low_priority=*/true);
  PickLogTask t3(w.os(), 3, 1, log, /*stop_after=*/2);
  PickLogTask t4(w.os(), 4, 0, log, /*stop_after=*/4);
  PickLogTask t5(w.os(), 5, 1, log);
  for (GuestTask* t : {&t0, &t1, &t2, &t3, &t4}) w.os().add_task(*t);
  w.tb->start();
  w.tb->sim().run_for(usec(80));
  w.os().add_task(t5);
  w.tb->sim().run_for(usec(220));
  EXPECT_EQ(log[0], "40404042222222222222222222222");
  EXPECT_EQ(log[1], "13131111515151515151515151515");
}

TEST(GuestOs, BurnTaskYieldsToNormalTasks) {
  GuestWorld w;
  TickTask normal(w.os(), 0);
  CpuBurnTask burn(w.os(), 0);
  w.os().add_task(normal);
  w.os().add_task(burn);
  w.tb->start();
  w.tb->sim().run_for(msec(50));
  // The normal task should monopolize the vCPU (burn is idle-priority).
  EXPECT_GT(normal.units, 4000);
}

TEST(GuestOs, BurnTaskPreventsHalt) {
  GuestWorld w;
  CpuBurnTask burn(w.os(), 0);
  w.os().add_task(burn);
  w.tb->start();
  w.tb->sim().run_for(msec(20));
  EXPECT_FALSE(w.tb->tested_vm().vcpu(0).halted());
  EXPECT_EQ(w.tb->tested_vm().vcpu(0).stats().count(ExitReason::kHlt), 0);
}

TEST(GuestOs, BlockedTaskWakesViaRescheduleIpi) {
  GuestWorld w;
  TickTask t(w.os(), 0, /*stop_after=*/1);
  w.os().add_task(t);
  w.tb->start();
  w.tb->sim().run_for(msec(5));
  EXPECT_EQ(t.units, 1);
  ASSERT_TRUE(w.tb->tested_vm().vcpu(0).halted());
  t.wake();
  w.tb->sim().run_for(msec(5));
  EXPECT_EQ(t.units, 2);
}

TEST(GuestOs, UnknownFlowCounted) {
  GuestWorld w;
  w.tb->start();
  w.tb->sim().run_for(msec(1));
  Packet p;
  p.proto = Proto::kUdp;
  p.flow = 12345;
  p.payload = 64;
  p.wire_size = 118;
  w.tb->peer_to_vm().transmit(make_packet(std::move(p)));
  w.tb->sim().run_for(msec(5));
  EXPECT_EQ(w.os().packets_to_unknown_flows(), 1);
}

TEST(GuestOs, JitterStaysWithinBounds) {
  GuestWorld w;
  const Cycles base = 10000;
  for (int i = 0; i < 1000; ++i) {
    const Cycles j = w.os().jittered(base);
    EXPECT_GE(j, static_cast<Cycles>(base * (1.0 - w.os().params().cost_jitter)) - 1);
    EXPECT_LE(j, static_cast<Cycles>(base * (1.0 + w.os().params().cost_jitter)) + 1);
  }
}

// ---------------------------------------------------------------------------
// VirtioNetFrontend / NAPI
// ---------------------------------------------------------------------------

/// Sink that counts packets delivered up the stack.
class CountSink final : public FlowSink {
 public:
  void on_packet(Vcpu&, const PacketPtr&, Callback<void()> done) override {
    ++packets;
    done();
  }
  int packets = 0;
};

TEST(VirtioNet, RxRingPrePostedAtInit) {
  GuestWorld w;
  EXPECT_EQ(w.tb->backend().rx_vq(0).avail_count(),
            w.tb->backend().rx_vq(0).capacity());
  EXPECT_FALSE(w.tb->backend().rx_vq(0).notifications_enabled());
  EXPECT_FALSE(w.tb->backend().tx_vq(0).interrupts_enabled());
}

TEST(VirtioNet, RxPathDeliversToSinkViaNapi) {
  GuestWorld w;
  CpuBurnTask burn(w.os(), 0);
  w.os().add_task(burn);
  CountSink sink;
  w.os().register_flow(42, sink);
  w.tb->start();
  w.tb->sim().run_for(msec(1));
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.proto = Proto::kUdp;
    p.flow = 42;
    p.payload = 100;
    p.wire_size = 154;
    w.tb->peer_to_vm().transmit(make_packet(std::move(p)));
  }
  w.tb->sim().run_for(msec(5));
  EXPECT_EQ(sink.packets, 20);
  EXPECT_EQ(w.tb->frontend().rx_polled(), 20);
}

TEST(VirtioNet, NapiModeratesInterruptsUnderBurst) {
  GuestWorld w;
  CpuBurnTask burn(w.os(), 0);
  w.os().add_task(burn);
  CountSink sink;
  w.os().register_flow(42, sink);
  w.tb->start();
  w.tb->sim().run_for(msec(1));
  const auto irqs_before = w.tb->tested_vm().vcpu(0).irqs_taken();
  // One tight burst: NAPI should take far fewer interrupts than packets.
  for (int i = 0; i < 64; ++i) {
    Packet p;
    p.proto = Proto::kUdp;
    p.flow = 42;
    p.payload = 100;
    p.wire_size = 154;
    w.tb->peer_to_vm().transmit(make_packet(std::move(p)));
  }
  w.tb->sim().run_for(msec(10));
  EXPECT_EQ(sink.packets, 64);
  const auto irqs = w.tb->tested_vm().vcpu(0).irqs_taken() - irqs_before;
  EXPECT_LT(irqs, 20);
  EXPECT_GE(irqs, 1);
}

/// Task that transmits continuously, tracking ring-full events.
class FloodTask final : public GuestTask {
 public:
  FloodTask(GuestOs& os, VirtioNetFrontend& dev)
      : GuestTask(os, "flood", 0), dev_(dev) {}

  void run_unit(Vcpu& vcpu) override {
    Packet p;
    p.proto = Proto::kUdp;
    p.flow = 9;
    p.payload = 1000;
    p.wire_size = 1054;
    vcpu.guest_exec(1000, [this, &vcpu, p] {
      dev_.transmit(vcpu, make_packet(Packet(p)), [this, &vcpu](bool ok) {
        if (ok) {
          ++sent;
        } else {
          ++stalls;
          dev_.add_tx_waiter(*this);
          block_self();
        }
        os().task_done(vcpu);
      });
    });
  }

  VirtioNetFrontend& dev_;
  int sent = 0;
  int stalls = 0;
};

TEST(VirtioNet, TxRingFullStopsAndResumesSender) {
  GuestWorld w;
  // A sender far faster than the backend drain must fill the 256-entry
  // ring, stop, and resume on TX-completion interrupts.
  FloodTask flood(w.os(), w.tb->frontend());
  w.os().add_task(flood);
  w.tb->start();
  w.tb->sim().run_for(msec(20));
  EXPECT_GT(flood.stalls, 0);
  EXPECT_GT(flood.sent, 1000);
  EXPECT_GT(w.tb->frontend().tx_queue_stops(), 0);
  EXPECT_GT(w.tb->backend().tx_irqs(), 0);
}

TEST(VirtioNet, KicksSuppressedWhileHandlerActive) {
  GuestWorld w;
  FloodTask flood(w.os(), w.tb->frontend());
  w.os().add_task(flood);
  w.tb->start();
  w.tb->sim().run_for(msec(20));
  // Far fewer kicks than packets: event-idx suppression works.
  EXPECT_LT(w.tb->frontend().kicks(), flood.sent / 2);
}

}  // namespace
}  // namespace es2
