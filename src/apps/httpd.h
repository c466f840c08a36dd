// Apache HTTP server + ApacheBench (paper Fig. 8b / Fig. 9).
//
// Guest: worker tasks serve static pages (request parse + page send as MTU
// segments); a listener task accepts new connections from a bounded SYN
// backlog, and each accepted connection also serves one page. Peer:
// `AbClient` keeps N concurrent requests in flight over persistent
// connections. Fig. 9's httperf is `StormClient` (apps/storm.h) on a
// steady shape: fresh connections at a fixed rate, connect time measured
// SYN -> SYN/ACK, with 1-second SYN retransmission on overflow — the
// "suspending event overflow" that makes the baseline's connect time
// explode past its knee.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/ring.h"
#include "guest/guest_os.h"
#include "guest/virtio_net.h"
#include "net/peer.h"

namespace es2 {

struct ApacheCosts {
  Cycles request_parse = 14000;   // parse + dispatch
  Cycles page_lookup = 18000;     // file cache hit + headers
  Bytes page_size = 8 * kKiB;     // paper: 8KB static pages
  Bytes request_size = 150;
  Cycles accept_cost = 260000;    // accept() + socket + worker handoff + logging
  int syn_backlog = 128;
  /// Per-worker accept/request queue depth. Requests past it are dropped
  /// (counted as drops{cause=accept_queue}); the default is high enough
  /// that paper-rate scenarios never trip it, so committed goldens keep
  /// their exact behaviour — storm scenarios tighten it.
  int accept_queue = 65536;
};

class ApacheServer : public Snapshottable {
 public:
  ApacheServer(GuestOs& os, VirtioNetFrontend& dev, std::uint64_t base_flow,
               int client_conns, int workers, ApacheCosts costs = {});
  ~ApacheServer();
  ApacheServer(const ApacheServer&) = delete;
  ApacheServer& operator=(const ApacheServer&) = delete;

  /// Flow id on which SYNs (new connections) arrive.
  std::uint64_t listen_flow() const { return listen_flow_; }

  std::int64_t requests_served() const { return served_; }
  std::int64_t accepts() const { return accepts_; }
  std::int64_t syn_drops() const { return syn_drops_; }
  /// Requests dropped because a worker's accept queue was full.
  std::int64_t accept_queue_drops() const { return accept_queue_drops_; }
  /// SYNs shed by the rung-3 admission ladder (overload mitigation on).
  std::int64_t shed_drops() const { return shed_drops_; }

  /// Registers app-level telemetry: accepts/served plus the canonical
  /// drops{cause=syn_backlog|accept_queue|accept_shed} family.
  void register_metrics(MetricsRegistry& registry);

  void snapshot_state(SnapshotWriter& w) const override;

 private:
  class Worker;
  class RequestSink;
  class ListenerTask;
  class ListenSink;

  GuestOs& os_;
  VirtioNetFrontend& dev_;
  ApacheCosts costs_;
  std::uint64_t listen_flow_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<RequestSink>> sinks_;
  std::unique_ptr<ListenerTask> listener_;
  std::unique_ptr<ListenSink> listen_sink_;
  std::int64_t served_ = 0;
  std::int64_t accepts_ = 0;
  std::int64_t syn_drops_ = 0;
  std::int64_t accept_queue_drops_ = 0;
  std::int64_t shed_drops_ = 0;
};

/// ApacheBench: `concurrency` persistent connections, each repeatedly
/// requesting one page and waiting for the full response.
class AbClient : public Snapshottable {
 public:
  AbClient(PeerHost& peer, std::uint64_t base_flow, int concurrency,
           ApacheCosts costs = {});

  void start();
  void stop() { running_ = false; }

  std::int64_t completed() const { return completed_; }
  void begin_window(SimTime now);
  double requests_per_sec(SimTime now) const;
  double response_mbps(SimTime now) const;

  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void send_request(std::uint64_t flow);
  void on_packet(const PacketPtr& packet);

  PeerHost& peer_;
  std::uint64_t base_flow_;
  int concurrency_;
  ApacheCosts costs_;
  bool running_ = false;
  std::int64_t completed_ = 0;
  Bytes resp_bytes_ = 0;
  std::int64_t completed_base_ = 0;
  Bytes resp_bytes_base_ = 0;
  SimTime window_start_ = 0;
  std::unordered_map<std::uint64_t, Bytes> rx_progress_;  // per flow
};

}  // namespace es2
