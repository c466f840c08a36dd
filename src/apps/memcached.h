// Memcached server + memaslap load generator (paper Fig. 8a).
//
// Guest: worker tasks (one per vCPU) service get/set requests from a
// per-worker queue fed by the flow sink; responses go back through the
// paravirtual device. Peer: memaslap keeps `threads x concurrency`
// requests outstanding with a get/set ratio, counting completed ops.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/id_time_table.h"
#include "base/ring.h"
#include "base/rng.h"
#include "guest/guest_os.h"
#include "guest/virtio_net.h"
#include "net/peer.h"
#include "stats/histogram.h"

namespace es2 {

struct MemcachedCosts {
  Cycles get_service = 12000;   // hash lookup + response assembly
  Cycles set_service = 16000;   // allocation + store
  Bytes get_request = 40;
  Bytes get_response = 1076;    // 1 KiB value + framing
  Bytes set_request = 1064;
  Bytes set_response = 8;
  /// Per-worker request queue depth; requests past it are dropped
  /// (drops{cause=worker_queue}). The default never trips at paper rates —
  /// it exists so overload cannot grow the queue without bound.
  int queue_cap = 65536;
};

class MemcachedServer : public Snapshottable {
 public:
  /// Spawns `workers` guest tasks, one per vCPU round-robin. Flows
  /// [base_flow, base_flow + client_threads) route to workers by flow id.
  MemcachedServer(GuestOs& os, VirtioNetFrontend& dev,
                  std::uint64_t base_flow, int client_threads, int workers,
                  MemcachedCosts costs = {});
  ~MemcachedServer();
  MemcachedServer(const MemcachedServer&) = delete;
  MemcachedServer& operator=(const MemcachedServer&) = delete;

  std::int64_t responses() const { return responses_; }
  Bytes response_bytes() const { return response_bytes_; }
  int max_queue_depth() const { return max_queue_depth_; }
  /// Requests dropped because a worker's queue hit MemcachedCosts::queue_cap.
  std::int64_t queue_drops() const { return queue_drops_; }

  /// Registers app-level telemetry: responses plus the canonical
  /// drops{cause=worker_queue} series.
  void register_metrics(MetricsRegistry& registry);

  void snapshot_state(SnapshotWriter& w) const override;

 private:
  class Worker;
  class Sink;

  GuestOs& os_;
  VirtioNetFrontend& dev_;
  MemcachedCosts costs_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::int64_t responses_ = 0;
  Bytes response_bytes_ = 0;
  int max_queue_depth_ = 0;
  std::int64_t queue_drops_ = 0;
};

class MemaslapClient : public Snapshottable {
 public:
  struct Params {
    int threads = 16;
    int concurrency_per_thread = 16;  // 16 x 16 = 256 concurrent requests
    double get_ratio = 0.9;
    MemcachedCosts costs;  // request/response sizes must match the server
  };

  MemaslapClient(PeerHost& peer, std::uint64_t base_flow, Params params,
                 std::uint64_t seed);

  void start();
  void stop() { running_ = false; }

  std::int64_t ops() const { return ops_; }
  void begin_window(SimTime now);
  double ops_per_sec(SimTime now) const;
  double response_mbps(SimTime now) const;
  const Histogram& latency() const { return latency_; }

  /// Serializes the load-generator RNG, op counters and the outstanding
  /// request set (sorted ids).
  void snapshot_state(SnapshotWriter& w) const override;

 private:
  void send_request(std::uint64_t flow);
  void on_response(const PacketPtr& packet);

  PeerHost& peer_;
  std::uint64_t base_flow_;
  Params params_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t next_req_ = 1;
  std::int64_t ops_ = 0;
  Bytes resp_bytes_ = 0;
  std::int64_t ops_base_ = 0;
  Bytes resp_bytes_base_ = 0;
  SimTime window_start_ = 0;
  Histogram latency_;
  IdTimeTable outstanding_;  // request id -> send time
};

}  // namespace es2
