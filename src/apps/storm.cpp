#include "apps/storm.h"

#include <algorithm>
#include <optional>

#include "base/assert.h"

namespace es2 {

namespace {

/// Client-side bound on outstanding connections (a real load generator
/// runs out of sockets/ports eventually). No caller comes near it: pending
/// attempts never exceed rate x duration.
constexpr int kMaxPending = 65536;

}  // namespace

StormShape StormShape::steady(double rate) {
  return {.base_rate = rate, .peak_rate = rate, .ramp_up = 0, .hold = 0,
          .ramp_down = 0, .burst_period = 0};
}

double StormShape::rate_at(SimDuration t) const {
  double r;
  if (t < ramp_up && ramp_up > 0) {
    r = base_rate + (peak_rate - base_rate) * static_cast<double>(t) /
                        static_cast<double>(ramp_up);
  } else if (t < ramp_up + hold) {
    r = peak_rate;
  } else if (t < ramp_up + hold + ramp_down && ramp_down > 0) {
    const SimDuration into = t - ramp_up - hold;
    r = peak_rate - (peak_rate - base_rate) * static_cast<double>(into) /
                        static_cast<double>(ramp_down);
  } else {
    r = base_rate;
  }
  if (burst_period > 0) {
    const auto phase = static_cast<double>(t % burst_period);
    if (phase < burst_duty * static_cast<double>(burst_period)) {
      r *= burst_mult;
    }
  }
  return std::max(r, 1.0);
}

StormClient::StormClient(PeerHost& peer, std::uint64_t listen_flow,
                         StormShape shape, SimDuration syn_rto,
                         int max_retries, Bytes syn_payload)
    : peer_(peer),
      listen_flow_(listen_flow),
      shape_(shape),
      syn_rto_(syn_rto),
      max_retries_(max_retries),
      syn_payload_(syn_payload),
      rtos_(peer.sim(), this) {
  ES2_CHECK(shape.base_rate > 0 && shape.peak_rate >= shape.base_rate);
  ES2_CHECK(syn_rto > 0 && max_retries >= 0);
  // Flow tables are per host: the guest's listener and this client both
  // key on the listen flow; SYN/ACKs route back here by the same id.
  peer.register_flow(listen_flow,
                     [this](const PacketPtr& p) { on_packet(p); });
}

void StormClient::start() {
  ES2_CHECK(!running_);
  running_ = true;
  started_at_ = peer_.sim().now();
  window_start_ = started_at_;
  open_connection();
}

void StormClient::open_connection() {
  if (!running_) return;
  const SimTime now = peer_.sim().now();
  const std::uint64_t conn = next_conn_++;
  if (static_cast<int>(pending_.size()) >= kMaxPending) {
    ++pending_overflows_;
  } else {
    ++attempted_;
    send_syn(conn, now, 0);
  }
  const double rate = shape_.rate_at(now - started_at_);
  const auto interval = static_cast<SimDuration>(1e9 / rate);
  peer_.sim().after(std::max<SimDuration>(interval, 1),
                    [this] { open_connection(); });
}

void StormClient::send_syn(std::uint64_t conn_id, SimTime first_attempt,
                           int tries) {
  if (!running_) return;
  pending_.put(conn_id, first_attempt);
  Packet syn;
  syn.proto = Proto::kTcp;
  syn.flow = listen_flow_;
  // TFO-style: the SYN carries the request, so the guest pays the full
  // TCP-with-payload receive cost for every storm packet.
  syn.payload = syn_payload_;
  syn.wire_size = syn_payload_ + kTcpUdpHeader;
  syn.flags.syn = true;
  syn.probe_id = conn_id;
  peer_.send(make_packet(std::move(syn)));
  rtos_.push(peer_.sim().now() + syn_rto_, SynRto{conn_id, tries});
}

void StormClient::on_rto(SynRto rto) {
  if (!running_) return;
  const std::optional<SimTime> first_attempt = pending_.take(rto.conn_id);
  if (!first_attempt) return;  // established meanwhile
  if (rto.tries + 1 >= max_retries_) {
    // Retry budget exhausted: the user gave up. This is what eventually
    // deflates the retransmit flywheel once the ramp ends.
    ++abandoned_;
    return;
  }
  ++retries_;
  send_syn(rto.conn_id, *first_attempt, rto.tries + 1);
}

void StormClient::on_packet(const PacketPtr& packet) {
  if (packet->flags.syn && packet->flags.ack) {
    const auto sent = pending_.take(packet->probe_id);
    if (!sent) return;  // late SYN/ACK after abandonment
    connect_time_.record(peer_.sim().now() - *sent);
    ++established_;
    return;
  }
  // Page data served back on an established connection.
  goodput_bytes_ += packet->payload;
}

void StormClient::begin_window(SimTime now) {
  established_base_ = established_;
  goodput_base_ = goodput_bytes_;
  window_start_ = now;
}

double StormClient::conns_per_sec(SimTime now) const {
  const SimDuration w = now - window_start_;
  if (w <= 0) return 0.0;
  return static_cast<double>(established_ - established_base_) /
         to_seconds(w);
}

double StormClient::goodput_mbps(SimTime now) const {
  return mbps(goodput_bytes_ - goodput_base_, now - window_start_);
}

void StormClient::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(listen_flow_);
  w.put_bool(running_);
  w.put_i64(started_at_);
  w.put_u64(next_conn_);
  w.put_i64(attempted_);
  w.put_i64(established_);
  w.put_i64(retries_);
  w.put_i64(abandoned_);
  w.put_i64(pending_overflows_);
  w.put_i64(goodput_bytes_);
  w.put_i64(connect_time_.count());
  pending_.snapshot(w);
}

}  // namespace es2
