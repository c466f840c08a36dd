// Ping RTT workload (paper Fig. 7): the peer pings the tested VM at a
// fixed interval; the guest echoes from softirq context (kernel ICMP).
#pragma once

#include <cstdint>

#include "base/id_time_table.h"
#include "guest/guest_os.h"
#include "guest/virtio_net.h"
#include "net/peer.h"
#include "stats/histogram.h"

namespace es2 {

/// Guest-side ICMP echo responder (runs entirely in NAPI context).
class PingResponder final : public FlowSink, public Snapshottable {
 public:
  PingResponder(GuestOs& os, VirtioNetFrontend& dev, std::uint64_t flow);

  void on_packet(Vcpu& vcpu, const PacketPtr& packet,
                 Callback<void()> done) override;

  std::int64_t echoed() const { return echoed_; }

  void snapshot_state(SnapshotWriter& w) const override;

 private:
  GuestOs& os_;
  VirtioNetFrontend& dev_;
  std::uint64_t flow_;
  std::int64_t echoed_ = 0;
};

/// Peer-side ping client: sends echo requests, records RTTs.
class PingClient : public Snapshottable {
 public:
  PingClient(PeerHost& peer, std::uint64_t flow,
             SimDuration interval = kSecond, Bytes payload = 56);

  void start();
  void stop() { running_ = false; }

  const Histogram& rtt() const { return rtt_; }
  /// Every individual RTT sample in nanoseconds (Fig. 7 is a time series).
  const std::vector<SimDuration>& samples() const { return samples_; }
  std::int64_t lost() const { return sent_ - received_; }

  /// Serializes probe bookkeeping: next id, sent/received counts and the
  /// outstanding-probe set (sorted ids).
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void send_echo();
  void on_reply(const PacketPtr& packet);

  PeerHost& peer_;
  std::uint64_t flow_;
  SimDuration interval_;
  Bytes payload_;
  bool running_ = false;
  std::uint64_t next_probe_ = 1;
  std::int64_t sent_ = 0;
  std::int64_t received_ = 0;
  Histogram rtt_;
  std::vector<SimDuration> samples_;
  IdTimeTable outstanding_;  // probe id -> send time
};

}  // namespace es2
