// Unit tests for the workload engines: netperf streams, ping, memcached,
// apache/ab, httperf.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "apps/httpd.h"
#include "apps/memcached.h"
#include "apps/netperf.h"
#include "apps/ping.h"
#include "apps/storm.h"
#include "harness/testbed.h"

namespace es2 {
namespace {

/// Httperf retransmits an unanswered SYN for as long as it runs.
constexpr int kUncapped = std::numeric_limits<int>::max();

struct AppWorld {
  explicit AppWorld(Es2Config cfg = Es2Config::pi(), std::uint64_t seed = 1) {
    TestbedOptions o;
    o.config = cfg;
    o.seed = seed;
    tb = std::make_unique<Testbed>(std::move(o));
  }
  std::unique_ptr<Testbed> tb;
};

TEST(Netperf, UdpStreamFlowsToPeer) {
  AppWorld w;
  NetperfSender sender(w.tb->guest(), w.tb->frontend(), 100, Proto::kUdp, 512,
                       0);
  w.tb->guest().add_task(sender);
  PeerStreamReceiver rx(w.tb->peer(), 100, Proto::kUdp);
  w.tb->start();
  w.tb->sim().run_for(msec(50));
  EXPECT_GT(sender.packets_sent(), 1000);
  // A handful of packets may still be in flight on the wire.
  EXPECT_NEAR(static_cast<double>(rx.packets_received()),
              static_cast<double>(sender.packets_sent()), 32.0);
  EXPECT_LE(rx.bytes_received(), sender.bytes_sent());
}

TEST(Netperf, TcpSenderIsWindowLimitedWithoutAcks) {
  AppWorld w;
  NetperfSender sender(w.tb->guest(), w.tb->frontend(), 100, Proto::kTcp, 1024,
                       0);
  w.tb->guest().add_task(sender);
  // NO peer receiver: no ACKs ever come back.
  w.tb->start();
  w.tb->sim().run_for(msec(100));
  const Bytes window = w.tb->guest().params().tcp_window;
  EXPECT_LE(sender.bytes_sent(), window);
  EXPECT_GE(sender.bytes_sent(), window - 2 * kMtu);
}

TEST(Netperf, TcpAckClockingSustainsStream) {
  AppWorld w;
  NetperfSender sender(w.tb->guest(), w.tb->frontend(), 100, Proto::kTcp, 1024,
                       0);
  w.tb->guest().add_task(sender);
  PeerStreamReceiver rx(w.tb->peer(), 100, Proto::kTcp);
  w.tb->start();
  w.tb->sim().run_for(msec(100));
  EXPECT_GT(sender.bytes_sent(), w.tb->guest().params().tcp_window * 4);
  EXPECT_NEAR(static_cast<double>(rx.bytes_received()),
              static_cast<double>(sender.bytes_sent()), 64.0 * kMtu);
}

TEST(Netperf, LargeMessagesSegmentToMtu) {
  AppWorld w;
  NetperfSender sender(w.tb->guest(), w.tb->frontend(), 100, Proto::kTcp,
                       16 * kKiB, 0);
  w.tb->guest().add_task(sender);
  PeerStreamReceiver rx(w.tb->peer(), 100, Proto::kTcp);
  w.tb->start();
  w.tb->sim().run_for(msec(50));
  EXPECT_GT(sender.messages_sent(), 10);
  // 16KiB -> 12 segments per message.
  EXPECT_NEAR(static_cast<double>(sender.packets_sent()) /
                  static_cast<double>(sender.messages_sent()),
              12.0, 1.0);
}

TEST(Netperf, GuestReceiverCountsAndAcks) {
  AppWorld w;
  NetperfReceiver rx(w.tb->guest(), w.tb->frontend(), 200, Proto::kTcp);
  PeerStreamSender::Params params;
  params.proto = Proto::kTcp;
  params.msg_size = 1024;
  PeerStreamSender tx(w.tb->peer(), 200, params);
  w.tb->start();
  tx.start();
  w.tb->sim().run_for(msec(100));
  EXPECT_GT(rx.bytes_received(), 100 * 1024);
  EXPECT_EQ(tx.retransmits(), 0);  // no loss in a 1-VM micro world
}

TEST(Netperf, UdpOfferedRateRespected) {
  AppWorld w;
  NetperfReceiver rx(w.tb->guest(), w.tb->frontend(), 200, Proto::kUdp);
  PeerStreamSender::Params params;
  params.proto = Proto::kUdp;
  params.msg_size = 512;
  params.udp_rate_pps = 50000;
  PeerStreamSender tx(w.tb->peer(), 200, params);
  w.tb->start();
  tx.start();
  w.tb->sim().run_for(msec(200));
  EXPECT_NEAR(static_cast<double>(tx.packets_sent()), 10000.0, 600.0);
  EXPECT_NEAR(static_cast<double>(rx.packets_received()),
              static_cast<double>(tx.packets_sent()), 200.0);
}

TEST(Ping, EchoRoundTrip) {
  AppWorld w;
  PingResponder responder(w.tb->guest(), w.tb->frontend(), 7);
  PingClient client(w.tb->peer(), 7, msec(5));
  w.tb->start();
  client.start();
  w.tb->sim().run_for(msec(101));
  EXPECT_GE(client.rtt().count(), 19);
  EXPECT_LE(client.lost(), 1);  // at most the in-flight final probe
  EXPECT_GE(responder.echoed(), client.rtt().count());
  // Dedicated-core micro world: RTT well under 100us.
  EXPECT_LT(client.rtt().p99(), usec(100));
}

TEST(Memcached, RequestsGetResponses) {
  AppWorld w;
  MemcachedServer server(w.tb->guest(), w.tb->frontend(), 1000, 4, 2);
  MemaslapClient::Params cp;
  cp.threads = 4;
  cp.concurrency_per_thread = 4;
  MemaslapClient client(w.tb->peer(), 1000, cp, 1);
  w.tb->start();
  client.start();
  w.tb->sim().run_for(msec(200));
  EXPECT_GT(client.ops(), 1000);
  // In-flight responses at cutoff make the counts differ by a few.
  EXPECT_NEAR(static_cast<double>(server.responses()),
              static_cast<double>(client.ops()), 16.0);
  EXPECT_GT(client.latency().count(), 1000);
}

TEST(Memcached, GetSetMixAffectsResponseBytes) {
  AppWorld w;
  MemcachedServer server(w.tb->guest(), w.tb->frontend(), 1000, 2, 2);
  MemaslapClient::Params all_gets;
  all_gets.threads = 2;
  all_gets.concurrency_per_thread = 2;
  all_gets.get_ratio = 1.0;
  MemaslapClient client(w.tb->peer(), 1000, all_gets, 1);
  w.tb->start();
  client.start();
  w.tb->sim().run_for(msec(100));
  client.begin_window(w.tb->sim().now());
  w.tb->sim().run_for(msec(100));
  // All gets: response bytes/op == get_response size.
  const double mbps_measured = client.response_mbps(w.tb->sim().now());
  const double expected =
      client.ops_per_sec(w.tb->sim().now()) * 1076 * 8 / 1e6;
  EXPECT_NEAR(mbps_measured, expected, expected * 0.05 + 0.1);
}

TEST(Apache, ServesPagesToAb) {
  AppWorld w;
  ApacheServer server(w.tb->guest(), w.tb->frontend(), 2000, 4, 2);
  AbClient client(w.tb->peer(), 2000, 4);
  w.tb->start();
  client.start();
  w.tb->sim().run_for(msec(300));
  EXPECT_GT(client.completed(), 100);
  EXPECT_EQ(server.requests_served(), client.completed());
}

TEST(Httperf, HandshakesAtLowRateAreFast) {
  // Httperf is a steady storm: the shape's rate never moves.
  const StormShape steady = StormShape::steady(200.0);
  for (const SimDuration t :
       {SimDuration{0}, SimDuration{1}, sec(1), sec(10)}) {
    EXPECT_EQ(steady.rate_at(t), 200.0) << "t=" << t;
  }
  AppWorld w;
  ApacheServer server(w.tb->guest(), w.tb->frontend(), 3000, 1, 2);
  StormClient client(w.tb->peer(), server.listen_flow(), steady, kSecond,
                     kUncapped, /*syn_payload=*/0);
  w.tb->start();
  client.start();
  w.tb->sim().run_for(msec(500));
  client.stop();
  EXPECT_GT(client.established(), 90);
  EXPECT_EQ(client.retries(), 0);
  EXPECT_LT(client.connect_time().mean(), 1e6);  // < 1ms on dedicated core
}

TEST(Httperf, BacklogOverflowTriggersSynRetries) {
  AppWorld w;
  ApacheCosts costs;
  costs.syn_backlog = 4;
  costs.accept_cost = 2300000;  // 1ms per accept: easily saturated
  ApacheServer server(w.tb->guest(), w.tb->frontend(), 3000, 1, 1, costs);
  const SimDuration rto = msec(50);
  StormClient client(w.tb->peer(), server.listen_flow(),
                     StormShape::steady(5000.0), rto, kUncapped,
                     /*syn_payload=*/0);
  w.tb->start();
  client.start();
  w.tb->sim().run_for(msec(300));
  EXPECT_GT(server.syn_drops(), 0);
  EXPECT_GT(client.retries(), 0);
  // Retried connections show the RTO in their connect time.
  EXPECT_GT(client.connect_time().max(), rto);
  // Keep going until some connection was answered only after more than
  // five retransmissions (a connect time past six RTOs): a retry cap of
  // five would have abandoned it, httperf never gives up.
  for (int i = 0; i < 20 && client.connect_time().max() <= 6 * rto; ++i) {
    w.tb->sim().run_for(msec(100));
  }
  client.stop();
  EXPECT_GT(client.connect_time().max(), 6 * rto);
  EXPECT_EQ(client.abandoned(), 0);
}

TEST(Burn, ConsumesOnlySlackCpu) {
  AppWorld w;
  // Burn exists via testbed options; add a netperf sender: the sender
  // should dominate.
  NetperfSender sender(w.tb->guest(), w.tb->frontend(), 100, Proto::kUdp, 512,
                       0);
  w.tb->guest().add_task(sender);
  PeerStreamReceiver rx(w.tb->peer(), 100, Proto::kUdp);
  w.tb->start();
  w.tb->sim().run_for(msec(100));
  // Throughput should be essentially the same as without burn: the
  // low-priority task cannot steal meaningful cycles.
  EXPECT_GT(sender.packets_sent(), 10000);
}

}  // namespace
}  // namespace es2
