// Direct device assignment (SR-IOV VF) with VT-d posted interrupts —
// the paper's §VII applicability discussion, implemented.
//
// A `DirectNic` models a virtual function assigned to the VM:
//   * guest transmits by writing the VF doorbell directly — an ordinary
//     MMIO store into the passed-through BAR, NO VM exit, no vhost;
//   * ingress packets raise the VF's MSI-X interrupt; with VT-d PI the
//     physical interrupt is posted straight into the vCPU's descriptor
//     with no hypervisor involvement (CPU-side PI then delivers exit-less).
//
// Because VT-d PI resolves its destination from a posted-interrupt
// descriptor chosen by software, ES2's intelligent redirection applies
// unchanged: the MSI still flows through the IRQ router where the
// interceptor may repoint it at an online vCPU.
#pragma once

#include <cstdint>

#include "base/ring.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "vm/vm.h"

namespace es2 {

struct DirectNicParams {
  /// Guest-side doorbell + descriptor write (an untrapped MMIO store).
  Cycles doorbell = 800;
  /// VF hardware DMA + wire handoff latency per packet.
  SimDuration dma_latency = 900;  // ns
  /// VT-d interrupt remapping/posting hardware latency.
  SimDuration posting_latency = 250;  // ns
  int rx_queue_depth = 1024;
};

class DirectNic {
 public:
  DirectNic(Vm& vm, Link& tx_link, DirectNicParams params = {});
  DirectNic(const DirectNic&) = delete;
  DirectNic& operator=(const DirectNic&) = delete;

  Vm& vm() { return vm_; }

  /// Guest transmit from `vcpu` context: doorbell write + DMA, no VM exit.
  void transmit(Vcpu& vcpu, PacketPtr packet, Callback<void()> done);

  /// Wire ingress: DMA into the guest buffer, then the VF's MSI-X
  /// interrupt via VT-d PI (through the router, so redirection applies).
  void receive_from_wire(PacketPtr packet);

  void set_rx_msi(MsiMessage msi) { rx_msi_ = msi; }
  const MsiMessage& rx_msi() const { return rx_msi_; }

  /// Received packets awaiting the guest driver (the guest pops these in
  /// its interrupt handler).
  bool rx_pending() const { return !rx_queue_.empty(); }
  PacketPtr pop_rx();

  std::int64_t tx_packets() const { return tx_packets_; }
  std::int64_t rx_packets() const { return rx_packets_; }
  std::int64_t rx_dropped() const { return rx_dropped_; }

 private:
  Vm& vm_;
  Link& tx_link_;
  DirectNicParams params_;
  MsiMessage rx_msi_;
  Ring<PacketPtr> rx_queue_;
  std::int64_t tx_packets_ = 0;
  std::int64_t rx_packets_ = 0;
  std::int64_t rx_dropped_ = 0;
};

}  // namespace es2
