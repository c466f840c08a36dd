#include "apps/memcached.h"

#include <algorithm>

#include "base/assert.h"
#include "base/strings.h"
#include "metrics/metrics.h"

namespace es2 {

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct PendingRequest {
  std::uint64_t flow = 0;
  std::uint64_t probe_id = 0;
  bool is_get = true;
};

class MemcachedServer::Worker final : public GuestTask {
 public:
  Worker(MemcachedServer& server, int index, int vcpu)
      : GuestTask(server.os_, format("memcached/%d", index), vcpu),
        server_(server) {
    block_self();  // idle until the sink queues work
  }

  /// False when the worker queue is at its cap (the request is dropped).
  bool enqueue(PendingRequest req) {
    if (static_cast<int>(queue_.size()) >= server_.costs_.queue_cap) {
      return false;
    }
    queue_.push_back(req);
    server_.max_queue_depth_ =
        std::max(server_.max_queue_depth_, static_cast<int>(queue_.size()));
    wake();
    return true;
  }

  void run_unit(Vcpu& vcpu) override {
    if (queue_.empty()) {
      block_self();
      os().task_done(vcpu);
      return;
    }
    const PendingRequest req = queue_.front();
    queue_.pop_front();
    const MemcachedCosts& c = server_.costs_;
    const Cycles service = req.is_get ? c.get_service : c.set_service;
    const Bytes resp_size = req.is_get ? c.get_response : c.set_response;
    const GuestParams& gp = os().params();
    const Cycles send_cost =
        gp.tcp_send_per_packet +
        static_cast<Cycles>(gp.tx_cycles_per_byte *
                            static_cast<double>(resp_size));
    vcpu.guest_exec(service + send_cost, [this, &vcpu, req, resp_size] {
      Packet resp;
      resp.proto = Proto::kTcp;
      resp.flow = req.flow;
      resp.payload = resp_size;
      resp.wire_size = resp_size + kTcpUdpHeader;
      resp.probe_id = req.probe_id;
      server_.dev_.transmit(
          vcpu, make_packet(std::move(resp)), [this, &vcpu](bool sent) {
            if (sent) {
              ++server_.responses_;
              os().note_app_progress();
            }
            // On a full ring the response is dropped; memaslap's outstanding
            // slot stalls, which is the real failure mode under overload.
            os().task_done(vcpu);
          });
    });
  }

 private:
  MemcachedServer& server_;
  Ring<PendingRequest> queue_;
};

class MemcachedServer::Sink final : public FlowSink {
 public:
  Sink(MemcachedServer& server, std::uint64_t flow) : server_(server) {
    server.os_.register_flow(flow, *this);
  }

  void on_packet(Vcpu&, const PacketPtr& packet,
                 Callback<void()> done) override {
    PendingRequest req;
    req.flow = packet->flow;
    req.probe_id = packet->probe_id;
    req.is_get = packet->payload <= 128;  // gets carry tiny requests
    const size_t w = packet->flow % server_.workers_.size();
    if (!server_.workers_[w]->enqueue(req)) ++server_.queue_drops_;
    done();
  }

 private:
  MemcachedServer& server_;
};

MemcachedServer::MemcachedServer(GuestOs& os, VirtioNetFrontend& dev,
                                 std::uint64_t base_flow, int client_threads,
                                 int workers, MemcachedCosts costs)
    : os_(os), dev_(dev), costs_(costs) {
  ES2_CHECK(workers > 0 && client_threads > 0);
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(*this, i, i % os.vm().num_vcpus()));
    os.add_task(*workers_.back());
  }
  for (int t = 0; t < client_threads; ++t) {
    sinks_.push_back(std::make_unique<Sink>(*this, base_flow + t));
  }
}

MemcachedServer::~MemcachedServer() = default;

// ---------------------------------------------------------------------------
// memaslap
// ---------------------------------------------------------------------------

MemaslapClient::MemaslapClient(PeerHost& peer, std::uint64_t base_flow,
                               Params params, std::uint64_t seed)
    : peer_(peer),
      base_flow_(base_flow),
      params_(params),
      rng_(Rng::stream(seed, "memaslap")) {
  for (int t = 0; t < params_.threads; ++t) {
    peer.register_flow(base_flow + t,
                       [this](const PacketPtr& p) { on_response(p); });
  }
}

void MemaslapClient::start() {
  ES2_CHECK(!running_);
  running_ = true;
  for (int t = 0; t < params_.threads; ++t) {
    for (int c = 0; c < params_.concurrency_per_thread; ++c) {
      send_request(base_flow_ + t);
    }
  }
}

void MemaslapClient::send_request(std::uint64_t flow) {
  if (!running_) return;
  const bool is_get = rng_.bernoulli(params_.get_ratio);
  Packet req;
  req.proto = Proto::kTcp;
  req.flow = flow;
  req.payload = is_get ? params_.costs.get_request : params_.costs.set_request;
  req.wire_size = req.payload + kTcpUdpHeader;
  req.probe_id = next_req_++;
  outstanding_.put(req.probe_id, peer_.sim().now());
  peer_.send(make_packet(std::move(req)));
}

void MemaslapClient::on_response(const PacketPtr& packet) {
  if (const auto sent = outstanding_.take(packet->probe_id)) {
    latency_.record(peer_.sim().now() - *sent);
  }
  ++ops_;
  resp_bytes_ += packet->payload;
  send_request(packet->flow);  // keep the concurrency window full
}

void MemaslapClient::begin_window(SimTime now) {
  ops_base_ = ops_;
  resp_bytes_base_ = resp_bytes_;
  window_start_ = now;
}

double MemaslapClient::ops_per_sec(SimTime now) const {
  const SimDuration w = now - window_start_;
  if (w <= 0) return 0.0;
  return static_cast<double>(ops_ - ops_base_) / to_seconds(w);
}

double MemaslapClient::response_mbps(SimTime now) const {
  return mbps(resp_bytes_ - resp_bytes_base_, now - window_start_);
}

void MemcachedServer::register_metrics(MetricsRegistry& registry) {
  const std::string vm = os_.vm().name();
  registry.probe("app.memcached.responses", {{"vm", vm}}, [this] {
    return static_cast<double>(responses_);
  });
  registry.probe("drops", {{"cause", "worker_queue"}, {"vm", vm}}, [this] {
    return static_cast<double>(queue_drops_);
  });
}

void MemcachedServer::snapshot_state(SnapshotWriter& w) const {
  w.put_i64(responses_);
  w.put_i64(response_bytes_);
  w.put_u32(static_cast<std::uint32_t>(max_queue_depth_));
  w.put_i64(queue_drops_);
  w.put_u32(static_cast<std::uint32_t>(workers_.size()));
}

void MemaslapClient::snapshot_state(SnapshotWriter& w) const {
  snapshot_rng(w, rng_);
  w.put_u64(base_flow_);
  w.put_bool(running_);
  w.put_u64(next_req_);
  w.put_i64(ops_);
  w.put_i64(resp_bytes_);
  w.put_i64(latency_.count());
  outstanding_.snapshot(w);
}

}  // namespace es2
