#include "net/peer.h"

#include <algorithm>
#include <vector>

namespace es2 {

PeerHost::PeerHost(Simulator& sim, Link& to_vm, SimDuration proc_delay)
    : sim_(sim), to_vm_(to_vm), proc_delay_(proc_delay) {}

void PeerHost::attach_rx(Link& from_vm) {
  from_vm.set_receiver([this](PacketPtr p) { on_receive(p); });
}

void PeerHost::register_flow(std::uint64_t flow, FlowHandler handler) {
  flows_[flow] = std::move(handler);
}

void PeerHost::unregister_flow(std::uint64_t flow) { flows_.erase(flow); }

void PeerHost::send(PacketPtr packet) {
  sim_.after(proc_delay_, [this, packet = std::move(packet)]() mutable {
    to_vm_.transmit(std::move(packet));
  });
}

void PeerHost::on_receive(const PacketPtr& packet) {
  const auto it = flows_.find(packet->flow);
  if (it == flows_.end()) {
    ++unrouted_;
    return;
  }
  it->second(packet);
}

void PeerHost::snapshot_state(SnapshotWriter& w) const {
  w.put_i64(proc_delay_);
  w.put_i64(unrouted_);
  std::vector<std::uint64_t> flow_ids;
  flow_ids.reserve(flows_.size());
  for (const auto& [flow, handler] : flows_) flow_ids.push_back(flow);
  std::sort(flow_ids.begin(), flow_ids.end());
  w.put_u32(static_cast<std::uint32_t>(flow_ids.size()));
  for (std::uint64_t f : flow_ids) w.put_u64(f);
}

}  // namespace es2
