// Unit tests for the virtqueue notification protocol, the vhost worker,
// and Algorithm 1's mode-switch behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "virtio/vhost.h"
#include "virtio/virtqueue.h"

namespace es2 {
namespace {

Virtqueue::Entry dummy_entry() {
  Packet p;
  p.proto = Proto::kUdp;
  p.payload = 100;
  p.wire_size = 154;
  return Virtqueue::Entry{make_packet(std::move(p)), 154};
}

TEST(Virtqueue, CapacityAccountsAvailInflightUsed) {
  Virtqueue vq("q", 4);
  EXPECT_EQ(vq.free_slots(), 4);
  EXPECT_TRUE(vq.add_avail(dummy_entry()));
  EXPECT_TRUE(vq.add_avail(dummy_entry()));
  EXPECT_EQ(vq.free_slots(), 2);
  auto e = vq.pop_avail();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(vq.in_flight(), 1);
  EXPECT_EQ(vq.free_slots(), 2);  // in-flight still owns the descriptor
  vq.push_used(std::move(*e));
  EXPECT_EQ(vq.free_slots(), 2);  // used still owns it
  vq.pop_used();
  EXPECT_EQ(vq.free_slots(), 3);  // only now reclaimed
}

TEST(Virtqueue, AddFailsWhenFull) {
  Virtqueue vq("q", 2);
  EXPECT_TRUE(vq.add_avail(dummy_entry()));
  EXPECT_TRUE(vq.add_avail(dummy_entry()));
  EXPECT_FALSE(vq.add_avail(dummy_entry()));
}

TEST(Virtqueue, FirstAddKicks) {
  Virtqueue vq("q", 8);
  ASSERT_TRUE(vq.add_avail(dummy_entry()));
  EXPECT_TRUE(vq.kick_needed());
}

TEST(Virtqueue, EventIdxKicksOncePerArm) {
  Virtqueue vq("q", 8);
  vq.add_avail(dummy_entry());
  EXPECT_TRUE(vq.kick_needed());  // crossed avail_event
  vq.add_avail(dummy_entry());
  EXPECT_FALSE(vq.kick_needed());  // host has not re-armed
  vq.add_avail(dummy_entry());
  EXPECT_FALSE(vq.kick_needed());
  // Host drains and re-arms.
  while (vq.pop_avail()) {
  }
  vq.enable_notifications();
  vq.add_avail(dummy_entry());
  EXPECT_TRUE(vq.kick_needed());
}

TEST(Virtqueue, DisabledNotificationsSuppressKicks) {
  Virtqueue vq("q", 8);
  vq.disable_notifications();
  vq.add_avail(dummy_entry());
  EXPECT_FALSE(vq.kick_needed());
  EXPECT_FALSE(vq.notifications_enabled());
}

TEST(Virtqueue, EnableNotificationsReportsRace) {
  Virtqueue vq("q", 8);
  vq.disable_notifications();
  vq.add_avail(dummy_entry());
  EXPECT_TRUE(vq.enable_notifications());  // work raced in
  while (vq.pop_avail()) {
  }
  EXPECT_FALSE(vq.enable_notifications());
}

TEST(Virtqueue, InterruptMirrorsKickSemantics) {
  Virtqueue vq("q", 8);
  for (int i = 0; i < 3; ++i) vq.add_avail(dummy_entry());
  auto a = vq.pop_avail();
  vq.push_used(std::move(*a));
  EXPECT_TRUE(vq.interrupt_needed());  // crossed used_event
  auto b = vq.pop_avail();
  vq.push_used(std::move(*b));
  EXPECT_FALSE(vq.interrupt_needed());  // guest has not re-armed
  vq.pop_used();
  vq.pop_used();
  vq.enable_interrupts();
  auto c = vq.pop_avail();
  vq.push_used(std::move(*c));
  EXPECT_TRUE(vq.interrupt_needed());
}

TEST(Virtqueue, DisabledInterruptsSuppress) {
  Virtqueue vq("q", 8);
  vq.disable_interrupts();
  vq.add_avail(dummy_entry());
  auto a = vq.pop_avail();
  vq.push_used(std::move(*a));
  EXPECT_FALSE(vq.interrupt_needed());
}

// ---------------------------------------------------------------------------
// VhostWorker
// ---------------------------------------------------------------------------

class CountingHandler final : public VqHandler {
 public:
  CountingHandler() : VqHandler("counting") {}
  void service(VhostWorker& worker, Callback<void(bool)> done) override {
    ++turns;
    worker.exec(2300 /* 1us */, [this, done = std::move(done)] {
      done(requeues_left > 0 && requeues_left--);
    });
  }
  int turns = 0;
  int requeues_left = 0;
};

struct WorkerWorld {
  WorkerWorld() : sim(1), host(sim, 2), worker(host, "w", 1, usec(20), usec(2), usec(2), 0.0) {}
  Simulator sim;
  KvmHost host;
  VhostWorker worker;
};

TEST(VhostWorker, ActivationRunsHandlerOnce) {
  WorkerWorld w;
  CountingHandler h;
  w.worker.activate(h);
  w.sim.run_for(msec(1));
  EXPECT_EQ(h.turns, 1);
  EXPECT_EQ(w.worker.thread().state(), SimThread::State::kBlocked);
}

TEST(VhostWorker, ActivationIsIdempotentWhileQueued) {
  WorkerWorld w;
  CountingHandler h;
  w.worker.activate(h);
  w.worker.activate(h);
  w.worker.activate(h);
  w.sim.run_for(msec(1));
  EXPECT_EQ(h.turns, 1);
}

TEST(VhostWorker, RequeueHonoursRequeueDelay) {
  WorkerWorld w;
  CountingHandler h;
  h.requeues_left = 1;
  w.worker.activate(h);
  w.sim.run_for(usec(10));
  EXPECT_EQ(h.turns, 1);  // second turn gated by the 20us requeue delay
  w.sim.run_for(usec(40));
  EXPECT_EQ(h.turns, 2);
}

TEST(VhostWorker, RoundRobinsMultipleHandlers) {
  WorkerWorld w;
  CountingHandler a, b;
  a.requeues_left = 3;
  b.requeues_left = 3;
  w.worker.activate(a);
  w.worker.activate(b);
  w.sim.run_for(msec(2));
  EXPECT_EQ(a.turns, 4);
  EXPECT_EQ(b.turns, 4);
}

// ---------------------------------------------------------------------------
// VhostNetBackend end-to-end through a worker (host side only)
// ---------------------------------------------------------------------------

class NullGuest final : public GuestCpu {
 public:
  explicit NullGuest(Vm& vm) : vm_(vm) { vm.set_guest(this); }
  void run(int vcpu_index) override { vm_.vcpu(vcpu_index).guest_halt(); }
  void take_interrupt(int vcpu_index, Vector) override {
    ++irqs;
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    vcpu.guest_exec(1000, [&vcpu] {
      vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
    });
  }
  Vm& vm_;
  int irqs = 0;
};

struct BackendWorld {
  BackendWorld()
      : sim(1),
        host(sim, 2),
        vm(host.create_vm("vm", {0}, InterruptVirtMode::kPostedInterrupt)),
        guest(vm),
        link(sim, 40.0, 1000),
        worker(host, "w", 1),
        backend(vm, worker, link) {
    vm.set_timer_hz(0);
    link.set_receiver([this](PacketPtr p) { wire.push_back(std::move(p)); });
  }
  Simulator sim;
  KvmHost host;
  Vm& vm;
  NullGuest guest;
  Link link;
  VhostWorker worker;
  VhostNetBackend backend;
  std::vector<PacketPtr> wire;
};

TEST(VhostNetBackend, TxDrainsQueueToWire) {
  BackendWorld w;
  w.vm.start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.backend.tx_vq().add_avail(dummy_entry()));
  }
  w.backend.notify_tx();
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.wire.size(), 10u);
  EXPECT_EQ(w.backend.tx_packets(), 10);
  // All descriptors completed back to the guest.
  EXPECT_EQ(w.backend.tx_vq().used_count(), 10);
  // Queue drained below quota: back in notification mode.
  EXPECT_TRUE(w.backend.tx_vq().notifications_enabled());
}

TEST(VhostNetBackend, QuotaYieldKeepsNotificationsDisabled) {
  BackendWorld w;
  w.vm.start();
  w.backend.set_poll_quota(2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.backend.tx_vq().add_avail(dummy_entry()));
  }
  w.backend.notify_tx();
  // After the first turn (2 pops) the handler must requeue with
  // notifications still off — the non-exit polling mode.
  w.sim.run_for(usec(12));
  EXPECT_FALSE(w.backend.tx_vq().notifications_enabled());
  EXPECT_GE(w.backend.tx_quota_hits(), 1);
  w.sim.run_for(msec(1));
  // Eventually drains and reverts.
  EXPECT_TRUE(w.backend.tx_vq().notifications_enabled());
  EXPECT_GE(w.backend.tx_mode_reverts(), 1);
}

TEST(VhostNetBackend, RxDeliversIntoGuestBuffersAndRaisesIrq) {
  BackendWorld w;
  w.vm.start();
  // The guest has no driver here: post RX buffers by hand.
  while (w.backend.rx_vq().free_slots() > 0) {
    ASSERT_TRUE(w.backend.rx_vq().add_avail(Virtqueue::Entry{nullptr, 0}));
  }
  Packet p;
  p.proto = Proto::kUdp;
  p.payload = 64;
  p.wire_size = 118;
  w.backend.receive_from_wire(make_packet(std::move(p)));
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.backend.rx_packets(), 1);
  EXPECT_EQ(w.backend.rx_vq().used_count(), 1);
  EXPECT_EQ(w.guest.irqs, 1);
}

TEST(VhostNetBackend, SockBufferOverflowDrops) {
  BackendWorld w;
  // Do NOT start the VM/worker processing: freeze the worker by not
  // starting the vm and pre-filling beyond capacity.
  const int cap = w.backend.params().sock_buffer;
  for (int i = 0; i < cap + 10; ++i) {
    Packet p;
    p.proto = Proto::kUdp;
    p.payload = 64;
    p.wire_size = 118;
    w.backend.receive_from_wire(make_packet(std::move(p)));
  }
  EXPECT_EQ(w.backend.rx_dropped(), 10);
}

TEST(VhostNetBackend, RxStarvedOfBuffersWaitsForRefillKick) {
  BackendWorld w;
  w.vm.start();
  // No RX buffers posted at all.
  Packet p;
  p.proto = Proto::kUdp;
  p.payload = 64;
  p.wire_size = 118;
  w.backend.receive_from_wire(make_packet(std::move(p)));
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.backend.rx_packets(), 0);
  // The handler armed refill notifications; a guest buffer post + kick
  // resumes delivery.
  ASSERT_TRUE(w.backend.rx_vq().add_avail(Virtqueue::Entry{nullptr, 0}));
  EXPECT_TRUE(w.backend.rx_vq().kick_needed());
  w.backend.notify_rx();
  w.sim.run_for(msec(1));
  EXPECT_EQ(w.backend.rx_packets(), 1);
}

}  // namespace
}  // namespace es2
