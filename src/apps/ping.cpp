#include "apps/ping.h"

namespace es2 {

PingResponder::PingResponder(GuestOs& os, VirtioNetFrontend& dev,
                             std::uint64_t flow)
    : os_(os), dev_(dev), flow_(flow) {
  os.register_flow(flow, *this);
}

void PingResponder::on_packet(Vcpu& vcpu, const PacketPtr& packet,
                              Callback<void()> done) {
  Packet reply;
  reply.proto = Proto::kIcmp;
  reply.flow = flow_;
  reply.payload = packet->payload;
  reply.wire_size = packet->wire_size;
  reply.probe_id = packet->probe_id;
  reply.sent_at = packet->sent_at;  // echo the client timestamp back
  // Kernel ICMP echo is cheap; reuse the ACK-generation cost knob.
  vcpu.guest_exec(os_.params().ack_send, [this, &vcpu, reply,
                                          done = std::move(done)]() mutable {
    ++echoed_;
    dev_.transmit(vcpu, make_packet(std::move(reply)),
                  [done = std::move(done)](bool) { done(); });
  });
}

PingClient::PingClient(PeerHost& peer, std::uint64_t flow,
                       SimDuration interval, Bytes payload)
    : peer_(peer), flow_(flow), interval_(interval), payload_(payload) {
  peer.register_flow(flow, [this](const PacketPtr& p) { on_reply(p); });
}

void PingClient::start() {
  if (running_) return;
  running_ = true;
  send_echo();
}

void PingClient::send_echo() {
  if (!running_) return;
  Packet p;
  p.proto = Proto::kIcmp;
  p.flow = flow_;
  p.payload = payload_;
  p.wire_size = payload_ + kTcpUdpHeader;
  p.probe_id = next_probe_++;
  p.sent_at = peer_.sim().now();
  outstanding_.put(p.probe_id, p.sent_at);
  ++sent_;
  peer_.send(make_packet(std::move(p)));
  peer_.sim().after(interval_, [this] { send_echo(); });
}

void PingClient::on_reply(const PacketPtr& packet) {
  const auto sent = outstanding_.take(packet->probe_id);
  if (!sent) return;
  const SimDuration rtt = peer_.sim().now() - *sent;
  ++received_;
  rtt_.record(rtt);
  samples_.push_back(rtt);
}

void PingResponder::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(flow_);
  w.put_i64(echoed_);
}

void PingClient::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(flow_);
  w.put_bool(running_);
  w.put_u64(next_probe_);
  w.put_i64(sent_);
  w.put_i64(received_);
  w.put_i64(rtt_.count());
  outstanding_.snapshot(w);
}

}  // namespace es2
