#include "apps/httpd.h"

#include <algorithm>

#include "base/assert.h"
#include "base/strings.h"
#include "metrics/metrics.h"

namespace es2 {

// ---------------------------------------------------------------------------
// ApacheServer
// ---------------------------------------------------------------------------

struct HttpRequest {
  std::uint64_t flow = 0;
  std::uint64_t probe_id = 0;
};

class ApacheServer::Worker final : public GuestTask {
 public:
  Worker(ApacheServer& server, int index, int vcpu)
      : GuestTask(server.os_, format("apache/%d", index), vcpu),
        server_(server) {
    block_self();
  }

  /// False when the accept queue is full (the request is dropped — a real
  /// server's listen/accept machinery is finite, and under a connection
  /// storm this bound is what keeps memory flat).
  bool enqueue(HttpRequest req) {
    if (static_cast<int>(queue_.size()) >= server_.costs_.accept_queue) {
      return false;
    }
    queue_.push_back(req);
    wake();
    return true;
  }

  void run_unit(Vcpu& vcpu) override {
    if (queue_.empty() && segments_left_ == 0) {
      block_self();
      os().task_done(vcpu);
      return;
    }
    if (segments_left_ == 0) {
      // Begin a new request: parse + page lookup.
      current_ = queue_.front();
      queue_.pop_front();
      const ApacheCosts& c = server_.costs_;
      segments_left_ = segments_for(c.page_size);
      sent_offset_ = 0;
      vcpu.guest_exec(c.request_parse + c.page_lookup,
                      [this, &vcpu] { send_segment(vcpu); });
      return;
    }
    send_segment(vcpu);
  }

 private:
  void send_segment(Vcpu& vcpu) {
    const ApacheCosts& c = server_.costs_;
    const Bytes mss = kMtu - kTcpUdpHeader;
    const Bytes payload = std::min<Bytes>(mss, c.page_size - sent_offset_);
    const GuestParams& gp = os().params();
    const Cycles cost =
        gp.tcp_send_per_packet / 2 +  // sendfile-style, cheaper per segment
        static_cast<Cycles>(gp.tx_cycles_per_byte *
                            static_cast<double>(payload));
    vcpu.guest_exec(cost, [this, &vcpu, payload] {
      Packet seg;
      seg.proto = Proto::kTcp;
      seg.flow = current_.flow;
      seg.payload = payload;
      seg.wire_size = payload + kTcpUdpHeader;
      seg.probe_id = current_.probe_id;
      seg.seq = static_cast<std::uint64_t>(sent_offset_);
      server_.dev_.transmit(
          vcpu, make_packet(std::move(seg)), [this, &vcpu, payload](bool sent) {
            if (sent) {
              sent_offset_ += payload;
              --segments_left_;
              if (segments_left_ == 0) {
                ++server_.served_;
                os().note_app_progress();
              }
            } else {
              server_.dev_.add_tx_waiter(*this);
              block_self();
            }
            os().task_done(vcpu);
          });
    });
  }

  ApacheServer& server_;
  Ring<HttpRequest> queue_;
  HttpRequest current_;
  int segments_left_ = 0;
  Bytes sent_offset_ = 0;
};

class ApacheServer::RequestSink final : public FlowSink {
 public:
  RequestSink(ApacheServer& server, std::uint64_t flow) : server_(server) {
    server.os_.register_flow(flow, *this);
  }

  void on_packet(Vcpu&, const PacketPtr& packet,
                 Callback<void()> done) override {
    HttpRequest req{packet->flow, packet->probe_id};
    const size_t w = packet->flow % server_.workers_.size();
    if (!server_.workers_[w]->enqueue(req)) ++server_.accept_queue_drops_;
    done();
  }

 private:
  ApacheServer& server_;
};

/// Accept path: SYNs land in a bounded backlog; the listener task accepts
/// and responds SYN/ACK.
class ApacheServer::ListenerTask final : public GuestTask {
 public:
  ListenerTask(ApacheServer& server)
      : GuestTask(server.os_, "apache/listener", 0), server_(server) {
    block_self();
  }

  bool enqueue_syn(const PacketPtr& syn) {
    if (static_cast<int>(backlog_.size()) >= server_.costs_.syn_backlog) {
      return false;  // backlog overflow: the SYN is dropped
    }
    backlog_.push_back(syn);
    wake();
    return true;
  }

  std::size_t backlog_size() const { return backlog_.size(); }

  void run_unit(Vcpu& vcpu) override {
    if (backlog_.empty()) {
      block_self();
      os().task_done(vcpu);
      return;
    }
    PacketPtr syn = backlog_.front();
    backlog_.pop_front();
    vcpu.guest_exec(server_.costs_.accept_cost, [this, &vcpu, syn] {
      Packet synack;
      synack.proto = Proto::kTcp;
      synack.flow = syn->flow;
      synack.wire_size = kTcpUdpHeader;
      synack.flags.syn = true;
      synack.flags.ack = true;
      synack.probe_id = syn->probe_id;
      synack.sent_at = syn->sent_at;
      const std::uint64_t probe = syn->probe_id;
      server_.dev_.transmit(
          vcpu, make_packet(std::move(synack)), [this, &vcpu, probe](bool sent) {
            if (sent) {
              ++server_.accepts_;
              os().note_app_progress();
              if (server_.costs_.serve_page_per_connection &&
                  !server_.workers_.empty()) {
                // The new connection immediately carries one HTTP request.
                const size_t w = probe % server_.workers_.size();
                if (!server_.workers_[w]->enqueue(
                        HttpRequest{server_.listen_flow_, probe})) {
                  ++server_.accept_queue_drops_;
                }
              }
            }
            os().task_done(vcpu);
          });
    });
  }

 private:
  ApacheServer& server_;
  Ring<PacketPtr> backlog_;
};

class ApacheServer::ListenSink final : public FlowSink {
 public:
  ListenSink(ApacheServer& server, std::uint64_t flow) : server_(server) {
    server.os_.register_flow(flow, *this);
  }

  void on_packet(Vcpu&, const PacketPtr& packet,
                 Callback<void()> done) override {
    // Rung 3 of the overload ladder: SYN-cookie-style early shedding. The
    // listen path refuses new connections beyond a tiny backlog *before*
    // the expensive accept, reserving the remaining CPU for connections
    // already admitted.
    if (server_.dev_.overload_rung() >= 3 &&
        server_.listener_->backlog_size() >=
            static_cast<std::size_t>(server_.costs_.shed_backlog)) {
      ++server_.shed_drops_;
      done();
      return;
    }
    if (!server_.listener_->enqueue_syn(packet)) ++server_.syn_drops_;
    done();
  }

 private:
  ApacheServer& server_;
};

ApacheServer::ApacheServer(GuestOs& os, VirtioNetFrontend& dev,
                           std::uint64_t base_flow, int client_conns,
                           int workers, ApacheCosts costs)
    : os_(os), dev_(dev), costs_(costs), listen_flow_(base_flow) {
  ES2_CHECK(workers > 0);
  listener_ = std::make_unique<ListenerTask>(*this);
  os.add_task(*listener_);
  listen_sink_ = std::make_unique<ListenSink>(*this, listen_flow_);
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(*this, i, i % os.vm().num_vcpus()));
    os.add_task(*workers_.back());
  }
  // Persistent ApacheBench connections use flows base+1 .. base+conns.
  for (int c = 1; c <= client_conns; ++c) {
    sinks_.push_back(std::make_unique<RequestSink>(*this, base_flow + c));
  }
}

ApacheServer::~ApacheServer() = default;

// ---------------------------------------------------------------------------
// AbClient
// ---------------------------------------------------------------------------

AbClient::AbClient(PeerHost& peer, std::uint64_t base_flow, int concurrency,
                   ApacheCosts costs)
    : peer_(peer),
      base_flow_(base_flow),
      concurrency_(concurrency),
      costs_(costs) {
  for (int c = 1; c <= concurrency_; ++c) {
    peer.register_flow(base_flow + c,
                       [this](const PacketPtr& p) { on_packet(p); });
  }
}

void AbClient::start() {
  ES2_CHECK(!running_);
  running_ = true;
  for (int c = 1; c <= concurrency_; ++c) {
    rx_progress_[base_flow_ + c] = 0;
    send_request(base_flow_ + c);
  }
}

void AbClient::send_request(std::uint64_t flow) {
  if (!running_) return;
  Packet req;
  req.proto = Proto::kTcp;
  req.flow = flow;
  req.payload = costs_.request_size;
  req.wire_size = costs_.request_size + kTcpUdpHeader;
  peer_.send(make_packet(std::move(req)));
}

void AbClient::on_packet(const PacketPtr& packet) {
  Bytes& got = rx_progress_[packet->flow];
  got += packet->payload;
  resp_bytes_ += packet->payload;
  if (got >= costs_.page_size) {
    got = 0;
    ++completed_;
    send_request(packet->flow);
  }
}

void AbClient::begin_window(SimTime now) {
  completed_base_ = completed_;
  resp_bytes_base_ = resp_bytes_;
  window_start_ = now;
}

double AbClient::requests_per_sec(SimTime now) const {
  const SimDuration w = now - window_start_;
  if (w <= 0) return 0.0;
  return static_cast<double>(completed_ - completed_base_) / to_seconds(w);
}

double AbClient::response_mbps(SimTime now) const {
  return mbps(resp_bytes_ - resp_bytes_base_, now - window_start_);
}

// ---------------------------------------------------------------------------
// HttperfClient
// ---------------------------------------------------------------------------

HttperfClient::HttperfClient(PeerHost& peer, std::uint64_t listen_flow,
                             double rate_per_sec, SimDuration syn_rto,
                             int max_pending)
    : peer_(peer),
      listen_flow_(listen_flow),
      rate_(rate_per_sec),
      syn_rto_(syn_rto),
      max_pending_(max_pending) {
  ES2_CHECK(rate_per_sec > 0);
  ES2_CHECK(max_pending > 0);
  // Flow tables are per host: the guest's listener and this client both
  // key on the listen flow; SYN/ACKs route back here by the same id.
  peer.register_flow(listen_flow,
                     [this](const PacketPtr& p) { on_packet(p); });
}

void HttperfClient::start() {
  ES2_CHECK(!running_);
  running_ = true;
  open_connection();
}

void HttperfClient::open_connection() {
  if (!running_) return;
  const std::uint64_t conn = next_conn_++;
  ++attempted_;
  send_syn(conn, peer_.sim().now());
  const auto interval = static_cast<SimDuration>(1e9 / rate_);
  peer_.sim().after(std::max<SimDuration>(interval, 1),
                    [this] { open_connection(); });
}

void HttperfClient::send_syn(std::uint64_t conn_id, SimTime first_attempt) {
  if (!running_) return;
  if (static_cast<int>(pending_.size()) >= max_pending_) {
    // Client-side socket/port exhaustion: the attempt is abandoned, not
    // tracked forever — the pending table stays bounded by construction.
    ++pending_overflows_;
    return;
  }
  pending_.put(conn_id, first_attempt);
  Packet syn;
  syn.proto = Proto::kTcp;
  syn.flow = listen_flow_;
  syn.wire_size = kTcpUdpHeader;
  syn.flags.syn = true;
  syn.probe_id = conn_id;
  peer_.send(make_packet(std::move(syn)));
  // SYN retransmission timer (dropped on establishment).
  peer_.sim().after(syn_rto_, [this, conn_id, first_attempt] {
    if (!running_) return;
    if (!pending_.take(conn_id)) return;  // established meanwhile
    ++retries_;
    send_syn(conn_id, first_attempt);
  });
}

void HttperfClient::on_packet(const PacketPtr& packet) {
  const auto sent = pending_.take(packet->probe_id);
  if (!sent) return;  // duplicate SYN/ACK after a retry
  connect_time_.record(peer_.sim().now() - *sent);
  ++established_;
}

void ApacheServer::register_metrics(MetricsRegistry& registry) {
  const std::string vm = os_.vm().name();
  MetricLabels labels = {{"vm", vm}};
  registry.probe("app.httpd.accepts", labels, [this] {
    return static_cast<double>(accepts_);
  });
  registry.probe("app.httpd.served", labels, [this] {
    return static_cast<double>(served_);
  });
  registry.probe("drops", {{"cause", "syn_backlog"}, {"vm", vm}}, [this] {
    return static_cast<double>(syn_drops_);
  });
  registry.probe("drops", {{"cause", "accept_queue"}, {"vm", vm}}, [this] {
    return static_cast<double>(accept_queue_drops_);
  });
  registry.probe("drops", {{"cause", "accept_shed"}, {"vm", vm}}, [this] {
    return static_cast<double>(shed_drops_);
  });
}

void ApacheServer::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(listen_flow_);
  w.put_i64(served_);
  w.put_i64(accepts_);
  w.put_i64(syn_drops_);
  w.put_i64(accept_queue_drops_);
  w.put_i64(shed_drops_);
  w.put_u32(static_cast<std::uint32_t>(workers_.size()));
}

void AbClient::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(base_flow_);
  w.put_bool(running_);
  w.put_i64(completed_);
  w.put_i64(resp_bytes_);
  std::vector<std::uint64_t> keys;
  keys.reserve(rx_progress_.size());
  for (const auto& [k, v] : rx_progress_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.put_u32(static_cast<std::uint32_t>(keys.size()));
  for (std::uint64_t k : keys) {
    w.put_u64(k);
    w.put_i64(rx_progress_.at(k));
  }
}

void HttperfClient::snapshot_state(SnapshotWriter& w) const {
  w.put_u64(listen_flow_);
  w.put_bool(running_);
  w.put_u64(next_conn_);
  w.put_i64(attempted_);
  w.put_i64(established_);
  w.put_i64(retries_);
  w.put_i64(pending_overflows_);
  w.put_i64(connect_time_.count());
  pending_.snapshot(w);
}

}  // namespace es2
