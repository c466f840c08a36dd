// Connection-storm load generator (overload-resilience workloads).
//
// Drives the guest's listen path the way a SYN-flood-shaped flash crowd
// does: the arrival rate ramps from a calm base to a peak, holds, and
// ramps back down, with a deterministic square-wave "diurnal burst"
// multiplier on top. Connections are TFO-style — the SYN carries a small
// request payload, so every arriving packet costs the guest the full TCP
// receive path (a pure header-only SYN is too cheap to outrun the poll
// loop; real storms carry data). Unanswered SYNs retransmit on an
// aggressive RTO from a bounded pending table, which is what sustains the
// offered load once the server stops answering — the livelock flywheel.
//
// Everything is deterministic: no RNG, shaped interarrival times and a
// square-wave burst gate only, so same-seed storm runs are bit-identical.
#pragma once

#include <cstdint>

#include "base/id_time_table.h"
#include "net/peer.h"
#include "stats/histogram.h"

namespace es2 {

/// Arrival-rate envelope: base -> peak ramp, hold, ramp down, then base
/// again (the post-storm recovery phase), with a square-wave burst
/// multiplier (duty fraction of each period runs at rate * burst_mult).
struct StormShape {
  double base_rate = 20000.0;    // conn/s before and after the storm
  double peak_rate = 120000.0;   // conn/s at the top of the ramp
  SimDuration ramp_up = msec(300);
  SimDuration hold = msec(600);
  SimDuration ramp_down = msec(300);
  SimDuration burst_period = msec(100);
  double burst_duty = 0.5;
  double burst_mult = 1.5;

  /// Instantaneous arrival rate `t` after the storm started.
  double rate_at(SimDuration t) const;
};

/// The load generator proper (peer side). Counts establishments (SYN/ACK
/// received), retransmissions, abandoned attempts (retry cap) and goodput
/// bytes (page payload received back on established connections).
class StormClient : public Snapshottable {
 public:
  StormClient(PeerHost& peer, std::uint64_t listen_flow, StormShape shape,
              SimDuration syn_rto = msec(50), int max_retries = 5,
              int max_pending = 65536, Bytes syn_payload = 64);

  void start();
  void stop() { running_ = false; }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t established() const { return established_; }
  std::int64_t retries() const { return retries_; }
  /// Attempts given up after max_retries unanswered SYNs.
  std::int64_t abandoned() const { return abandoned_; }
  /// Attempts never made because the pending table was full (client-side
  /// port exhaustion — the client's own finite-capacity bound).
  std::int64_t pending_overflows() const { return pending_overflows_; }
  Bytes goodput_bytes() const { return goodput_bytes_; }
  const Histogram& connect_time() const { return connect_time_; }

  /// Measurement-window helpers (same pattern as AbClient).
  void begin_window(SimTime now);
  double conns_per_sec(SimTime now) const;
  double goodput_mbps(SimTime now) const;
  std::int64_t established_in_window() const {
    return established_ - established_base_;
  }

  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void open_connection();
  void send_syn(std::uint64_t conn_id, SimTime first_attempt, int tries);
  void on_packet(const PacketPtr& packet);

  PeerHost& peer_;
  std::uint64_t listen_flow_;
  StormShape shape_;
  SimDuration syn_rto_;
  int max_retries_;
  int max_pending_;
  Bytes syn_payload_;
  bool running_ = false;
  SimTime started_at_ = 0;
  std::uint64_t next_conn_ = 1;
  std::int64_t attempted_ = 0;
  std::int64_t established_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t abandoned_ = 0;
  std::int64_t pending_overflows_ = 0;
  Bytes goodput_bytes_ = 0;
  std::int64_t established_base_ = 0;
  Bytes goodput_base_ = 0;
  SimTime window_start_ = 0;
  Histogram connect_time_;
  IdTimeTable pending_;  // conn -> first SYN
};

}  // namespace es2
