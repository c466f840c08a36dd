// Integration tests: full stacks end-to-end, checking the paper's headline
// qualitative claims hold in the model, plus determinism.
#include <gtest/gtest.h>

#include "harness/experiments.h"
#include "base/strings.h"
#include "harness/parallel.h"

namespace es2 {
namespace {

StreamOptions quick_stream(Es2Config cfg, Proto proto, bool vm_sends) {
  StreamOptions o;
  o.config = cfg;
  o.proto = proto;
  o.msg_size = 1024;
  o.vm_sends = vm_sends;
  o.warmup = msec(100);
  o.measure = msec(300);
  return o;
}

TEST(Integration, PiEliminatesInterruptExits) {
  const StreamResult base =
      run_stream(quick_stream(Es2Config::baseline(), Proto::kTcp, true));
  const StreamResult pi =
      run_stream(quick_stream(Es2Config::pi(), Proto::kTcp, true));
  // Baseline: interrupt delivery + completion exits present.
  EXPECT_GT(base.exits.interrupt_delivery, 5000);
  EXPECT_GT(base.exits.interrupt_completion, 10000);
  // PI: both gone (Table I's PI row).
  EXPECT_EQ(pi.exits.interrupt_delivery, 0);
  EXPECT_EQ(pi.exits.interrupt_completion, 0);
  // And the guest gets more useful time.
  EXPECT_GT(pi.exits.tig_percent, base.exits.tig_percent + 3);
}

TEST(Integration, DeliveryExitsFewerThanCompletionExits) {
  // Paper Table I: delivery may be skipped when the vCPU is already in
  // host mode, completion (EOI) never is.
  const StreamResult base =
      run_stream(quick_stream(Es2Config::baseline(), Proto::kTcp, true));
  EXPECT_LT(base.exits.interrupt_delivery, base.exits.interrupt_completion);
}

TEST(Integration, PiIncreasesIoRequestExits) {
  // Table I: removing interrupt exits speeds the guest up, producing MORE
  // I/O request exits (70k -> 85k in the paper).
  const StreamResult base =
      run_stream(quick_stream(Es2Config::baseline(), Proto::kTcp, true));
  const StreamResult pi =
      run_stream(quick_stream(Es2Config::pi(), Proto::kTcp, true));
  EXPECT_GT(pi.exits.io_instruction, base.exits.io_instruction);
}

TEST(Integration, HybridCollapsesIoExitsTcp) {
  const StreamResult pi =
      run_stream(quick_stream(Es2Config::pi(), Proto::kTcp, true));
  const StreamResult pih =
      run_stream(quick_stream(Es2Config::pi_h(4), Proto::kTcp, true));
  EXPECT_LT(pih.exits.io_instruction, pi.exits.io_instruction / 3);
  EXPECT_GT(pih.exits.tig_percent, 95.0);  // paper: 97.5%
  EXPECT_GT(pih.throughput_mbps, pi.throughput_mbps);
}

TEST(Integration, HybridCollapsesIoExitsUdp) {
  auto opts = quick_stream(Es2Config::pi_h(8), Proto::kUdp, true);
  opts.msg_size = 256;
  const StreamResult pih = run_stream(opts);
  EXPECT_LT(pih.exits.io_instruction, 1000);
  EXPECT_GT(pih.exits.tig_percent, 99.0);  // paper: 99.7%
}

TEST(Integration, QuotaMonotonicityUdp) {
  // Fig. 4a: smaller quota -> fewer I/O-instruction exits.
  double prev = 1e18;
  for (const int quota : {64, 16, 8}) {
    auto opts = quick_stream(Es2Config::pi_h(quota), Proto::kUdp, true);
    opts.msg_size = 256;
    const StreamResult r = run_stream(opts);
    EXPECT_LE(r.exits.io_instruction, prev + 2000.0) << "quota " << quota;
    prev = r.exits.io_instruction;
  }
  EXPECT_LT(prev, 10000.0);  // quota 8: nearly none
}

TEST(Integration, UdpReceiveHasNoIoExits) {
  // Fig. 5b: UDP receive is unidirectional — no guest I/O requests.
  const StreamResult r =
      run_stream(quick_stream(Es2Config::pi(), Proto::kUdp, false));
  EXPECT_LT(r.exits.io_instruction, 200);
  EXPECT_GT(r.exits.tig_percent, 99.0);
}

TEST(Integration, NapiModeratesReceiveInterrupts) {
  const StreamResult r =
      run_stream(quick_stream(Es2Config::baseline(), Proto::kUdp, false));
  // Interrupt rate far below the packet rate.
  EXPECT_LT(r.guest_irqs_per_sec, r.packets_per_sec / 4);
}

TEST(Integration, RedirectionCutsPingRtt) {
  PingOptions base;
  base.config = Es2Config::pi_h();
  base.samples = 40;
  base.interval = msec(60);
  PingOptions full = base;
  full.config = Es2Config::pi_h_r();
  const PingResult rb = run_ping(base);
  const PingResult rf = run_ping(full);
  // Fig. 7: without redirection RTT rides the scheduling delay (ms);
  // with it, the median is near-zero.
  EXPECT_GT(rb.rtt.p50(), msec(1) / 2);
  EXPECT_LT(rf.rtt.p50(), msec(1) / 2);
  EXPECT_LT(rf.rtt.mean(), rb.rtt.mean());
}

TEST(Integration, FullEs2BeatsBaselineOnApps) {
  MemcachedOptions mb;
  mb.config = Es2Config::baseline();
  mb.warmup = msec(200);
  mb.measure = msec(500);
  MemcachedOptions mf = mb;
  mf.config = Es2Config::pi_h_r();
  const MemcachedResult rb = run_memcached(mb);
  const MemcachedResult rf = run_memcached(mf);
  EXPECT_GT(rf.ops_per_sec, rb.ops_per_sec);

  ApacheOptions ab;
  ab.config = Es2Config::baseline();
  ab.warmup = msec(200);
  ab.measure = msec(500);
  ApacheOptions af = ab;
  af.config = Es2Config::pi_h_r();
  const ApacheResult arb = run_apache(ab);
  const ApacheResult arf = run_apache(af);
  EXPECT_GT(arf.requests_per_sec, arb.requests_per_sec);
}

TEST(Integration, HttperfKneeLaterWithEs2) {
  HttperfOptions ob;
  ob.config = Es2Config::baseline();
  ob.rate_per_sec = 2000;
  ob.duration = sec(1);
  HttperfOptions oe = ob;
  oe.config = Es2Config::pi_h_r();
  const HttperfResult rb = run_httperf(ob);
  const HttperfResult re = run_httperf(oe);
  // At 2000 conn/s the baseline is past its knee, full ES2 is not.
  EXPECT_GT(rb.avg_connect_ms, re.avg_connect_ms);
}

TEST(Integration, HttperfSynTimersStayOffTheCalendar) {
  // Perfbench's request cell: 1000 conn/s for 500 ms. Every SYN's 1 s
  // retransmission timer rides the client's delay line, so only its head
  // is a live event; one event per SYN would hold ~500 live records.
  for (const Es2Config cfg : {Es2Config::baseline(), Es2Config::pi_h_r()}) {
    HttperfOptions o;
    o.config = cfg;
    o.rate_per_sec = 1000;
    o.duration = msec(500);
    const HttperfResult r = run_httperf(o);
    EXPECT_LT(r.metrics->value("eventcore.peak_live"), 100.0) << cfg.name();
    EXPECT_EQ(r.established, 501) << cfg.name();
  }
}

TEST(Integration, RequestRunnersHarvestTheirServersMetrics) {
  // Every finite queue reports into drops{cause=...} (DropCounts), so each
  // request runner's server registers its drop rows and app counters.
  MemcachedOptions mo;
  mo.warmup = msec(20);
  mo.measure = msec(50);
  const MetricsData mem = *run_memcached(mo).metrics;
  EXPECT_GE(mem.value("drops{cause=worker_queue,vm=vm0}", -1), 0.0);
  EXPECT_GT(mem.value("app.memcached.responses{vm=vm0}"), 0.0);

  ApacheOptions ao;
  ao.warmup = msec(20);
  ao.measure = msec(50);
  HttperfOptions ho;
  ho.duration = msec(100);
  const MetricsData apache = *run_apache(ao).metrics;
  const MetricsData httperf = *run_httperf(ho).metrics;
  for (const MetricsData* d : {&apache, &httperf}) {
    for (const char* cause : {"syn_backlog", "accept_queue", "accept_shed"}) {
      EXPECT_GE(d->value(format("drops{cause=%s,vm=vm0}", cause), -1), 0.0)
          << cause;
    }
  }
  // ab's connections are persistent; httperf opens one per SYN.
  EXPECT_GT(apache.value("app.httpd.served{vm=vm0}"), 0.0);
  EXPECT_GT(httperf.value("app.httpd.accepts{vm=vm0}"), 0.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto opts = quick_stream(Es2Config::pi_h(4), Proto::kTcp, true);
  opts.seed = 77;
  const StreamResult a = run_stream(opts);
  const StreamResult b = run_stream(opts);
  EXPECT_EQ(a.exits.total, b.exits.total);
  EXPECT_EQ(a.packets_per_sec, b.packets_per_sec);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.kicks_per_sec, b.kicks_per_sec);
}

TEST(Integration, SeedChangesDetails) {
  auto opts = quick_stream(Es2Config::baseline(), Proto::kTcp, true);
  opts.seed = 1;
  const StreamResult a = run_stream(opts);
  opts.seed = 2;
  const StreamResult b = run_stream(opts);
  EXPECT_NE(a.exits.total, b.exits.total);
  // But the macroscopic behaviour is stable.
  EXPECT_NEAR(a.exits.tig_percent, b.exits.tig_percent, 3.0);
}

TEST(Integration, ParallelRunnerMatchesSerial) {
  auto opts = quick_stream(Es2Config::pi(), Proto::kUdp, true);
  const StreamResult serial = run_stream(opts);
  std::vector<StreamResult> results(3);
  parallel_for(3, [&](int i) { results[static_cast<size_t>(i)] = run_stream(opts); }, 3);
  for (const auto& r : results) {
    EXPECT_EQ(r.exits.total, serial.exits.total);
    EXPECT_EQ(r.throughput_mbps, serial.throughput_mbps);
  }
}

TEST(Integration, NoPacketLossInMicroWorlds) {
  for (const bool sends : {true, false}) {
    const StreamResult r =
        run_stream(quick_stream(Es2Config::pi_h_r(), Proto::kTcp, sends));
    EXPECT_EQ(r.rx_dropped, 0) << (sends ? "send" : "recv");
  }
}

}  // namespace
}  // namespace es2
