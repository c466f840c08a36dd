#include "es2/sriov.h"

#include "base/assert.h"

namespace es2 {

DirectNic::DirectNic(Vm& vm, Link& tx_link, DirectNicParams params)
    : vm_(vm), tx_link_(tx_link), params_(params) {
  rx_msi_ = MsiMessage{static_cast<Vector>(kFirstDeviceVector + 4), 0,
                       DeliveryMode::kLowestPriority};
}

void DirectNic::transmit(Vcpu& vcpu, PacketPtr packet,
                         Callback<void()> done) {
  // The doorbell is an ordinary store into the passed-through BAR: guest
  // work only, no exit (this is exactly what direct assignment buys).
  vcpu.guest_exec(params_.doorbell,
                  [this, packet = std::move(packet),
                   done = std::move(done)]() mutable {
                    ++tx_packets_;
                    Simulator& sim = vm_.host().sim();
                    sim.after(params_.dma_latency,
                              [this, packet = std::move(packet)]() mutable {
                                tx_link_.transmit(std::move(packet));
                              });
                    done();
                  });
}

void DirectNic::receive_from_wire(PacketPtr packet) {
  if (static_cast<int>(rx_queue_.size()) >= params_.rx_queue_depth) {
    ++rx_dropped_;
    return;
  }
  rx_queue_.push_back(std::move(packet));
  ++rx_packets_;
  // VT-d posting: hardware latency, then the MSI goes through the router
  // (ES2's interception point) and posts into the chosen vCPU.
  vm_.host().sim().after(params_.posting_latency, [this] {
    vm_.host().router().deliver_msi(vm_, rx_msi_);
  });
}

PacketPtr DirectNic::pop_rx() {
  ES2_CHECK_MSG(!rx_queue_.empty(), "pop_rx on empty VF queue");
  PacketPtr p = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  return p;
}

}  // namespace es2
