// Netperf-style stream workloads (paper §VI-B/C/D).
//
// Guest side: `NetperfSender` (TCP_STREAM / UDP_STREAM toward the peer) and
// `NetperfReceiver` (sink for peer->VM streams, generating delayed ACKs for
// TCP). Peer side: `PeerStreamReceiver` (ACK generator) and
// `PeerStreamSender` (windowed TCP / paced UDP source with a simple
// go-back-N retransmit, since ingress drops are possible under overload).
#pragma once

#include <cstdint>
#include <deque>

#include "guest/guest_os.h"
#include "guest/virtio_net.h"
#include "net/peer.h"
#include "stats/meters.h"

namespace es2 {

class MetricsRegistry;

/// Guest task sending a TCP/UDP stream of `msg_size`-byte messages.
class NetperfSender final : public GuestTask,
                            public FlowSink,
                            public Snapshottable {
 public:
  NetperfSender(GuestOs& os, VirtioNetFrontend& dev, std::uint64_t flow,
                Proto proto, Bytes msg_size, int vcpu_affinity);

  void run_unit(Vcpu& vcpu) override;
  void on_packet(Vcpu& vcpu, const PacketPtr& packet,
                 Callback<void()> done) override;

  Bytes bytes_sent() const { return bytes_sent_; }
  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t messages_sent() const { return messages_sent_; }

  /// Payload bytes per wire segment for this message size.
  Bytes segment_payload() const;

  /// Registers sender throughput probes (labels vm=<name>, flow=<id>).
  void register_metrics(MetricsRegistry& registry);

  /// Serializes TCP sequence/window state and send counters.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  bool window_open() const;
  void emit_segments(Vcpu& vcpu);
  PacketPtr make_segment(Bytes payload);

  VirtioNetFrontend& dev_;
  std::uint64_t flow_;
  Proto proto_;
  Bytes msg_size_;
  // TCP sequence state (bytes).
  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_ = 0;
  // Segments of the in-progress message still to emit.
  int segments_left_ = 0;
  bool cost_charged_ = false;
  Bytes bytes_sent_ = 0;
  std::int64_t packets_sent_ = 0;
  std::int64_t messages_sent_ = 0;
};

/// Guest flow sink for peer->VM streams; emits delayed ACKs for TCP.
class NetperfReceiver final : public FlowSink, public Snapshottable {
 public:
  NetperfReceiver(GuestOs& os, VirtioNetFrontend& dev, std::uint64_t flow,
                  Proto proto);

  void on_packet(Vcpu& vcpu, const PacketPtr& packet,
                 Callback<void()> done) override;

  Bytes bytes_received() const { return bytes_received_; }
  std::int64_t packets_received() const { return packets_received_; }

  /// Registers sink probes (labels vm=<name>, flow=<id>).
  void register_metrics(MetricsRegistry& registry);

  /// Serializes receive-side TCP state and counters.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  GuestOs& os_;
  VirtioNetFrontend& dev_;
  std::uint64_t flow_;
  Proto proto_;
  std::uint64_t expected_seq_ = 0;
  int segs_since_ack_ = 0;
  std::int64_t dup_count_ = 0;
  Bytes bytes_received_ = 0;
  std::int64_t packets_received_ = 0;
};

/// Peer endpoint for VM->peer streams: counts bytes, ACKs TCP.
class PeerStreamReceiver : public Snapshottable {
 public:
  PeerStreamReceiver(PeerHost& peer, std::uint64_t flow, Proto proto,
                     int ack_every = 2);

  Bytes bytes_received() const { return bytes_received_; }
  std::int64_t packets_received() const { return packets_received_; }

  void begin_window(SimTime now);
  double throughput_mbps(SimTime now) const;

  /// Registers peer-side sink probes (label flow=<id>).
  void register_metrics(MetricsRegistry& registry);

  /// Serializes cumulative-ACK state and window bases.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void on_packet(const PacketPtr& packet);

  PeerHost& peer_;
  std::uint64_t flow_;
  Proto proto_;
  int ack_every_;
  std::uint64_t cum_seq_ = 0;
  int segs_since_ack_ = 0;
  Bytes bytes_received_ = 0;
  std::int64_t packets_received_ = 0;
  Bytes window_base_ = 0;
  SimTime window_start_ = 0;
};

/// Peer endpoint for peer->VM streams.
class PeerStreamSender : public Snapshottable {
 public:
  struct Params {
    Proto proto = Proto::kTcp;
    Bytes msg_size = 1024;
    Bytes window = 128 * kKiB;      // receive-window cap toward the VM
    double udp_rate_pps = 150000;   // UDP pacing (average)
    /// UDP packets are emitted in back-to-back bursts of this size (GSO /
    /// sendmmsg batching on the bare-metal sender), which is what gives
    /// the guest's NAPI its interrupt moderation.
    int udp_burst = 16;
    SimDuration rto = msec(10);     // base go-back-N retransmit timeout
    /// Cap on the RTO exponential-backoff shift: consecutive barren RTOs
    /// back off to at most rto << max_rto_backoff.
    int max_rto_backoff = 5;
    /// Fast retransmit after this many duplicate ACKs (TCP's classic 3);
    /// <= 0 disables it, leaving RTO-only go-back-N recovery. Disabled by
    /// default: the guest sink's delayed ACKs repeat the cumulative seq
    /// under plain overload drops, and go-back-N (no SACK) answering every
    /// third repeat thrashes a healthy stream. Lossy-link scenarios, where
    /// holes are real, enable it.
    int dupack_threshold = 0;
  };

  PeerStreamSender(PeerHost& peer, std::uint64_t flow, Params params);

  void start();
  void stop() {
    running_ = false;
    rto_timer_.cancel();
  }

  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t retransmits() const { return retransmits_; }
  std::int64_t fast_retransmits() const { return fast_retransmits_; }

  /// Registers peer-side source probes, including the TCP recovery
  /// signature — tcp.retransmits / tcp.fast_retransmits (label flow=<id>).
  void register_metrics(MetricsRegistry& registry);

  /// Serializes the full go-back-N sender state: sequence numbers, RTO
  /// backoff, duplicate-ACK tracking and retransmit counters.
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void pump_tcp();
  void send_udp_tick();
  void on_packet(const PacketPtr& packet);  // ACKs from the guest
  void check_rto();
  Bytes seg_payload() const;

  PeerHost& peer_;
  std::uint64_t flow_;
  Params params_;
  bool running_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t acked_at_last_rto_check_ = 0;
  int rto_backoff_ = 0;  // exponential backoff shift, capped
  int dup_acks_ = 0;     // consecutive duplicate ACKs at acked_
  /// Highest sequence sent when the last retransmit started; dup ACKs
  /// below this are part of the same recovery, not a new hole.
  std::uint64_t recover_ = 0;
  EventHandle rto_timer_;
  std::int64_t packets_sent_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t fast_retransmits_ = 0;
};

}  // namespace es2
