// External bare-metal peer host (the paper's traffic-generator server).
//
// The peer is NOT virtualized: it processes packets with a small fixed
// per-packet delay (a tuned bare-metal server on the other end of the
// back-to-back cable) and runs the client/sink side of each benchmark.
// Per-flow handlers are registered by the workload engines in src/apps.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/link.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace es2 {

class PeerHost : public Snapshottable {
 public:
  using FlowHandler = std::function<void(const PacketPtr&)>;

  /// `to_vm` carries peer->VM traffic. Peer->self processing delay models
  /// the bare-metal stack (default ~2.5us/packet).
  PeerHost(Simulator& sim, Link& to_vm,
           SimDuration proc_delay = 2500 /*ns*/);

  /// Wires the VM->peer direction into this host.
  void attach_rx(Link& from_vm);

  void register_flow(std::uint64_t flow, FlowHandler handler);
  void unregister_flow(std::uint64_t flow);

  /// Transmits after the bare-metal processing delay.
  void send(PacketPtr packet);

  Simulator& sim() { return sim_; }
  std::int64_t unrouted() const { return unrouted_; }

  /// Serializes the registered flow set (sorted ids — flows_ is an
  /// unordered_map, never walked in hash order) and the unrouted count.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void on_receive(const PacketPtr& packet);

  Simulator& sim_;
  Link& to_vm_;
  SimDuration proc_delay_;
  std::unordered_map<std::uint64_t, FlowHandler> flows_;
  std::int64_t unrouted_ = 0;
};

}  // namespace es2
