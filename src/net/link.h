// Point-to-point link model (the back-to-back 40GbE cable of the paper's
// testbed).
//
// The link serializes packets at `bandwidth_bps` and adds a fixed
// propagation + NIC processing delay. The evaluation workloads are event-
// path-bound, not wire-bound, so the link rarely saturates — but modeling
// serialization keeps large-message benches honest.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "sim/simulator.h"
#include "stats/meters.h"

namespace es2 {

class FaultInjector;
class MetricsRegistry;

class Link : public Snapshottable {
 public:
  using Receiver = std::function<void(PacketPtr)>;

  /// A unidirectional link; build two for a full-duplex cable.
  Link(Simulator& sim, double bandwidth_gbps, SimDuration latency);

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Attaches a fault injector (loss / reorder / duplication). Null (the
  /// default) keeps the link perfect and draws no random numbers.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Queues a packet for transmission; delivery happens after
  /// serialization + propagation.
  void transmit(PacketPtr packet);

  /// Ethernet-pause-style ingress admission control (the overload ladder's
  /// RX-backpressure rung): while `keep_every` > 1 the link admits one in
  /// `keep_every` packets and sheds the rest at the NIC, before they cost
  /// any wire or backend time. 0/1 disables (the default: a passive link).
  /// Deterministic by construction — a modulo counter, no RNG.
  void set_backpressure(int keep_every) {
    backpressure_keep_ = keep_every;
  }
  int backpressure_keep() const { return backpressure_keep_; }

  std::int64_t packets_sent() const { return packets_.value(); }
  Bytes bytes_sent() const { return bytes_.value(); }
  /// Packets lost on the wire (fault injection); a perfect link stays 0.
  std::int64_t packets_dropped() const { return dropped_.value(); }
  /// Packets shed by ingress backpressure (overload rung 2); 0 unless the
  /// admission ladder escalated to the link.
  std::int64_t packets_shed() const { return shed_.value(); }
  /// Packets serialized onto the wire but not yet delivered.
  int in_flight() const { return in_flight_; }

  /// Registers wire telemetry probes (label link=<direction>).
  void register_metrics(MetricsRegistry& registry,
                        const std::string& direction);

  /// Registers this link's rows of the canonical `drops{cause=...}` family
  /// (wire loss and backpressure shedding), label link=<direction>.
  void register_drop_metrics(MetricsRegistry& registry,
                             const std::string& direction);

  /// Serializes serializer occupancy (line_free_at, in-flight count),
  /// lifetime wire counters and the backpressure state (admission ratio,
  /// sequence, shed count).
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  SimDuration serialization_delay(Bytes size) const;

  Simulator& sim_;
  double bandwidth_bps_;
  SimDuration latency_;
  Receiver receiver_;
  FaultInjector* faults_ = nullptr;
  SimTime line_free_at_ = 0;  // when the serializer becomes idle
  int in_flight_ = 0;         // delivery events scheduled, not yet fired
  int backpressure_keep_ = 0;       // admit 1-in-N while > 1 (0/1 = off)
  std::uint64_t backpressure_seq_ = 0;
  Counter packets_;
  Counter bytes_;
  Counter dropped_;
  Counter shed_;
};

/// Full-duplex cable: two independent directions.
struct DuplexLink {
  DuplexLink(Simulator& sim, double bandwidth_gbps, SimDuration latency)
      : a_to_b(sim, bandwidth_gbps, latency),
        b_to_a(sim, bandwidth_gbps, latency) {}
  Link a_to_b;
  Link b_to_a;
};

}  // namespace es2
