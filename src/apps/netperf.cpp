#include "apps/netperf.h"

#include <algorithm>

#include "base/assert.h"
#include "base/strings.h"
#include "metrics/metrics.h"

namespace es2 {

namespace {
std::string flow_label(std::uint64_t flow) {
  return format("%llu", static_cast<unsigned long long>(flow));
}
}  // namespace

// ---------------------------------------------------------------------------
// NetperfSender (guest task)
// ---------------------------------------------------------------------------

NetperfSender::NetperfSender(GuestOs& os, VirtioNetFrontend& dev,
                             std::uint64_t flow, Proto proto, Bytes msg_size,
                             int vcpu_affinity)
    : GuestTask(os, format("netperf-send/%llu",
                           static_cast<unsigned long long>(flow)),
                vcpu_affinity),
      dev_(dev),
      flow_(flow),
      proto_(proto),
      msg_size_(msg_size) {
  ES2_CHECK(msg_size_ > 0);
  os.register_flow(flow, *this);  // receives the peer's ACKs
}

Bytes NetperfSender::segment_payload() const {
  return std::min<Bytes>(msg_size_, kMtu - kTcpUdpHeader);
}

bool NetperfSender::window_open() const {
  if (proto_ != Proto::kTcp) return true;
  const Bytes inflight = static_cast<Bytes>(next_seq_ - acked_);
  return inflight + segment_payload() <= os().params().tcp_window;
}

PacketPtr NetperfSender::make_segment(Bytes payload) {
  Packet p;
  p.proto = proto_;
  p.flow = flow_;
  p.payload = payload;
  p.wire_size = payload + kTcpUdpHeader;
  p.seq = next_seq_;
  p.sent_at = 0;
  return make_packet(std::move(p));
}

void NetperfSender::run_unit(Vcpu& vcpu) {
  if (segments_left_ > 0) {
    // Resuming a message interrupted by a closed window or full TX ring.
    emit_segments(vcpu);
    return;
  }
  if (proto_ == Proto::kTcp && !window_open()) {
    block_self();  // the ACK sink wakes us
    os().task_done(vcpu);
    return;
  }
  // Start a new message: the send() syscall + stack traversal cost.
  const GuestParams& p = os().params();
  const Cycles per_msg = proto_ == Proto::kTcp ? p.tcp_send_per_packet
                                               : p.udp_send_per_packet;
  const Cycles cost =
      per_msg + static_cast<Cycles>(p.tx_cycles_per_byte *
                                    static_cast<double>(msg_size_));
  segments_left_ = segments_for(msg_size_);
  cost_charged_ = false;
  vcpu.guest_exec(os().jittered(cost), [this, &vcpu] {
    cost_charged_ = true;
    ++messages_sent_;
    emit_segments(vcpu);
  });
}

void NetperfSender::emit_segments(Vcpu& vcpu) {
  if (segments_left_ <= 0) {
    os().task_done(vcpu);
    return;
  }
  if (proto_ == Proto::kTcp && !window_open()) {
    block_self();
    os().task_done(vcpu);
    return;
  }
  const Bytes remaining_msg =
      msg_size_ - static_cast<Bytes>(segments_for(msg_size_) - segments_left_) *
                      segment_payload();
  const Bytes payload = std::min<Bytes>(segment_payload(), remaining_msg);
  PacketPtr seg = make_segment(std::max<Bytes>(payload, 1));
  dev_.transmit(vcpu, seg, [this, &vcpu, seg](bool sent) {
    if (!sent) {
      // TX ring full: wait for completions to free descriptors.
      dev_.add_tx_waiter(*this);
      block_self();
      os().task_done(vcpu);
      return;
    }
    next_seq_ += static_cast<std::uint64_t>(seg->payload);
    bytes_sent_ += seg->payload;
    ++packets_sent_;
    --segments_left_;
    emit_segments(vcpu);
  });
}

void NetperfSender::on_packet(Vcpu&, const PacketPtr& packet,
                              Callback<void()> done) {
  // Peer ACK: advance the window; wake the sender if it was waiting.
  if (packet->ack_seq > acked_) acked_ = packet->ack_seq;
  if (!runnable()) wake();
  done();
}

// ---------------------------------------------------------------------------
// NetperfReceiver (guest sink)
// ---------------------------------------------------------------------------

NetperfReceiver::NetperfReceiver(GuestOs& os, VirtioNetFrontend& dev,
                                 std::uint64_t flow, Proto proto)
    : os_(os), dev_(dev), flow_(flow), proto_(proto) {
  os.register_flow(flow, *this);
}

void NetperfReceiver::on_packet(Vcpu& vcpu, const PacketPtr& packet,
                                Callback<void()> done) {
  ++packets_received_;
  if (proto_ != Proto::kTcp) {
    bytes_received_ += packet->payload;
    done();
    return;
  }
  if (packet->seq != expected_seq_) {
    // Duplicate from go-back-N: re-ACK so the peer advances, but throttled
    // (one dup-ACK per few duplicates) to avoid ACK storms.
    if (++dup_count_ % 4 != 1) {
      done();
      return;
    }
    Packet ack;
    ack.proto = Proto::kTcp;
    ack.flow = flow_;
    ack.wire_size = kTcpUdpHeader;
    ack.flags.ack = true;
    ack.ack_seq = expected_seq_;
    vcpu.guest_exec(os_.params().ack_send, [this, &vcpu, ack,
                                            done = std::move(done)]() mutable {
      dev_.transmit(vcpu, make_packet(std::move(ack)),
                    [done = std::move(done)](bool) { done(); });
    });
    return;
  }
  expected_seq_ += static_cast<std::uint64_t>(packet->payload);
  bytes_received_ += packet->payload;
  ++segs_since_ack_;
  if (segs_since_ack_ < os_.params().delayed_ack_every) {
    done();
    return;
  }
  segs_since_ack_ = 0;
  Packet ack;
  ack.proto = Proto::kTcp;
  ack.flow = flow_;
  ack.wire_size = kTcpUdpHeader;
  ack.flags.ack = true;
  ack.ack_seq = expected_seq_;
  vcpu.guest_exec(os_.params().ack_send, [this, &vcpu, ack,
                                          done = std::move(done)]() mutable {
    dev_.transmit(vcpu, make_packet(std::move(ack)),
                  [done = std::move(done)](bool) { done(); });
  });
}

// ---------------------------------------------------------------------------
// PeerStreamReceiver
// ---------------------------------------------------------------------------

PeerStreamReceiver::PeerStreamReceiver(PeerHost& peer, std::uint64_t flow,
                                       Proto proto, int ack_every)
    : peer_(peer), flow_(flow), proto_(proto), ack_every_(ack_every) {
  peer.register_flow(flow, [this](const PacketPtr& p) { on_packet(p); });
}

void PeerStreamReceiver::begin_window(SimTime now) {
  window_base_ = bytes_received_;
  window_start_ = now;
}

double PeerStreamReceiver::throughput_mbps(SimTime now) const {
  return mbps(bytes_received_ - window_base_, now - window_start_);
}

void PeerStreamReceiver::on_packet(const PacketPtr& packet) {
  ++packets_received_;
  bytes_received_ += packet->payload;
  if (proto_ != Proto::kTcp) return;
  const std::uint64_t end = packet->seq + static_cast<std::uint64_t>(packet->payload);
  if (end > cum_seq_) cum_seq_ = end;
  if (++segs_since_ack_ < ack_every_) return;
  segs_since_ack_ = 0;
  Packet ack;
  ack.proto = Proto::kTcp;
  ack.flow = flow_;
  ack.wire_size = kTcpUdpHeader;
  ack.flags.ack = true;
  ack.ack_seq = cum_seq_;
  peer_.send(make_packet(std::move(ack)));
}

// ---------------------------------------------------------------------------
// PeerStreamSender
// ---------------------------------------------------------------------------

PeerStreamSender::PeerStreamSender(PeerHost& peer, std::uint64_t flow,
                                   Params params)
    : peer_(peer), flow_(flow), params_(params) {
  peer.register_flow(flow, [this](const PacketPtr& p) { on_packet(p); });
}

Bytes PeerStreamSender::seg_payload() const {
  return std::min<Bytes>(params_.msg_size, kMtu - kTcpUdpHeader);
}

void PeerStreamSender::start() {
  ES2_CHECK(!running_);
  running_ = true;
  if (params_.proto == Proto::kTcp) {
    pump_tcp();
    check_rto();
  } else {
    send_udp_tick();
  }
}

void PeerStreamSender::pump_tcp() {
  // Emit as much as the window allows; further sends are ACK-clocked.
  while (running_ &&
         static_cast<Bytes>(next_seq_ - acked_) + seg_payload() <=
             params_.window) {
    Packet p;
    p.proto = Proto::kTcp;
    p.flow = flow_;
    p.payload = seg_payload();
    p.wire_size = p.payload + kTcpUdpHeader;
    p.seq = next_seq_;
    next_seq_ += static_cast<std::uint64_t>(p.payload);
    ++packets_sent_;
    peer_.send(make_packet(std::move(p)));
  }
}

void PeerStreamSender::send_udp_tick() {
  if (!running_) return;
  const int burst = std::max(params_.udp_burst, 1);
  for (int i = 0; i < burst; ++i) {
    Packet p;
    p.proto = Proto::kUdp;
    p.flow = flow_;
    p.payload = seg_payload();
    p.wire_size = p.payload + kTcpUdpHeader;
    p.seq = next_seq_++;
    ++packets_sent_;
    peer_.send(make_packet(std::move(p)));
  }
  const auto interval =
      static_cast<SimDuration>(burst * 1e9 / params_.udp_rate_pps);
  peer_.sim().after(std::max<SimDuration>(interval, 1),
                    [this] { send_udp_tick(); });
}

void PeerStreamSender::on_packet(const PacketPtr& packet) {
  if (params_.proto != Proto::kTcp) return;
  if (packet->ack_seq > acked_) {
    acked_ = packet->ack_seq;
    dup_acks_ = 0;
  } else if (packet->ack_seq == acked_ && next_seq_ > acked_ &&
             params_.dupack_threshold > 0) {
    // Duplicate ACK with data outstanding: the receiver is seeing
    // past-the-hole segments. Enough of them prove the path is alive and
    // the hole is real — retransmit without waiting out the RTO. Only one
    // fast retransmit per window though (NewReno-style recovery point):
    // the resent window echoes more duplicates for the same hole, and
    // answering those would retransmit the window once per dup ACK.
    if (++dup_acks_ >= params_.dupack_threshold && acked_ >= recover_) {
      dup_acks_ = 0;
      ++fast_retransmits_;
      recover_ = next_seq_;
      next_seq_ = acked_;  // go-back-N from the hole
      rto_backoff_ = 0;
    }
  }
  pump_tcp();
}

void PeerStreamSender::check_rto() {
  if (!running_) return;
  const SimDuration rto = params_.rto << rto_backoff_;
  rto_timer_ = peer_.sim().after(rto, [this] {
    if (!running_) return;
    if (acked_ < next_seq_ && acked_ == acked_at_last_rto_check_) {
      // No progress for a full RTO: go-back-N from the last ACK, with
      // exponential backoff so an overloaded receiver is not buried under
      // duplicate storms.
      ++retransmits_;
      recover_ = next_seq_;
      next_seq_ = acked_;
      if (rto_backoff_ < params_.max_rto_backoff) ++rto_backoff_;
      pump_tcp();
    } else {
      rto_backoff_ = 0;
    }
    acked_at_last_rto_check_ = acked_;
    check_rto();
  });
}

void NetperfSender::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"vm", os().vm().name()},
                         {"flow", flow_label(flow_)}};
  registry.probe("app.netperf.bytes_sent", labels, [this] {
    return static_cast<double>(bytes_sent_);
  });
  registry.probe("app.netperf.packets_sent", labels, [this] {
    return static_cast<double>(packets_sent_);
  });
  registry.probe("app.netperf.messages_sent", labels, [this] {
    return static_cast<double>(messages_sent_);
  });
}

void NetperfReceiver::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"vm", os_.vm().name()},
                         {"flow", flow_label(flow_)}};
  registry.probe("app.netperf.bytes_received", labels, [this] {
    return static_cast<double>(bytes_received_);
  });
  registry.probe("app.netperf.packets_received", labels, [this] {
    return static_cast<double>(packets_received_);
  });
}

void PeerStreamReceiver::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"flow", flow_label(flow_)}};
  registry.probe("peer.stream.bytes_received", labels, [this] {
    return static_cast<double>(bytes_received_);
  });
  registry.probe("peer.stream.packets_received", labels, [this] {
    return static_cast<double>(packets_received_);
  });
}

void PeerStreamSender::register_metrics(MetricsRegistry& registry) {
  MetricLabels labels = {{"flow", flow_label(flow_)}};
  registry.probe("peer.stream.packets_sent", labels, [this] {
    return static_cast<double>(packets_sent_);
  });
  registry.probe("tcp.retransmits", labels, [this] {
    return static_cast<double>(retransmits_);
  });
  registry.probe("tcp.fast_retransmits", labels, [this] {
    return static_cast<double>(fast_retransmits_);
  });
}

void NetperfSender::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(flow_);
  w.put_u8(static_cast<std::uint8_t>(proto_));
  w.put_i64(msg_size_);
  w.put_u64(next_seq_);
  w.put_u64(acked_);
  w.put_u32(static_cast<std::uint32_t>(segments_left_));
  w.put_bool(cost_charged_);
  w.put_i64(bytes_sent_);
  w.put_i64(packets_sent_);
  w.put_i64(messages_sent_);
  w.put_bool(runnable());
}

void NetperfReceiver::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(flow_);
  w.put_u8(static_cast<std::uint8_t>(proto_));
  w.put_u64(expected_seq_);
  w.put_u32(static_cast<std::uint32_t>(segs_since_ack_));
  w.put_i64(dup_count_);
  w.put_i64(bytes_received_);
  w.put_i64(packets_received_);
}

void PeerStreamReceiver::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(flow_);
  w.put_u8(static_cast<std::uint8_t>(proto_));
  w.put_u64(cum_seq_);
  w.put_u32(static_cast<std::uint32_t>(segs_since_ack_));
  w.put_i64(bytes_received_);
  w.put_i64(packets_received_);
  w.put_i64(window_base_);
  w.put_i64(window_start_);
}

void PeerStreamSender::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(flow_);
  w.put_bool(running_);
  w.put_u64(next_seq_);
  w.put_u64(acked_);
  w.put_u64(acked_at_last_rto_check_);
  w.put_u32(static_cast<std::uint32_t>(rto_backoff_));
  w.put_u32(static_cast<std::uint32_t>(dup_acks_));
  w.put_u64(recover_);
  w.put_i64(packets_sent_);
  w.put_i64(retransmits_);
  w.put_i64(fast_retransmits_);
}

}  // namespace es2
