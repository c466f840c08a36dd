#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "apic/lapic.h"
#include "apic/vapic.h"
#include "base/alloc_hook.h"
#include "cpu/cfs.h"
#include "es2/redirect.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "virtio/virtqueue.h"
#include "vm/exit.h"

namespace perfbench {

using namespace es2;

namespace {

/// Keeps calibrated results observable so the calls are not elided.
volatile std::uint64_t g_sink = 0;

struct PerCall {
  double ns = 0;
  double allocs = 0;
};

/// Median host ns per call of `body` over `batches` batches of `calls`
/// calls each, plus heap allocations per call over all batches.
template <typename Body>
PerCall per_call(int calls, Body&& body, int batches = 7) {
  std::vector<double> ns;
  const std::int64_t allocs0 = test::allocation_count();
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_ns();
    for (int i = 0; i < calls; ++i) body();
    ns.push_back((now_ns() - t0) / calls);
  }
  const std::int64_t allocs = test::allocation_count() - allocs0;
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2],
          static_cast<double>(allocs) / (static_cast<double>(calls) * batches)};
}

double sum_named(const MetricsData& m, const char* name) {
  double total = 0;
  for (const MetricSample& s : m.samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

double sum_prefixed(const MetricsData& m, const std::string& prefix) {
  double total = 0;
  for (const MetricSample& s : m.samples) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) total += s.value;
  }
  return total;
}

double sum_labelled(const MetricsData& m, const char* name, const char* key,
                    const char* value) {
  double total = 0;
  for (const MetricSample& s : m.samples) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.labels) {
      if (k == key && v == value) total += s.value;
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Calibration calibrate(
    const std::function<void(const std::string&, double, double)>& on_layer) {
  Calibration c;
  double t0 = now_ns();
  const auto layer_done = [&](const char* layer) {
    const double t1 = now_ns();
    on_layer(layer, t0, t1);
    t0 = t1;
  };

  {
    Simulator sim;
    SimTime t = 0;
    c.sim_ns_per_schedule_fire = per_call(20000, [&] {
      sim.at(t + 10, [] { g_sink = g_sink + 1; });
      sim.run_until(t + 10);
      t += 10;
    }).ns;
    c.sim_ns_per_cancel = per_call(20000, [&] {
      EventHandle h = sim.at(t + 1000000, [] {});
      h.cancel();
      ++t;
    }).ns;
  }
  layer_done("sim");

  {
    Simulator sim;
    CfsScheduler sched(sim, 1);
    SimThread thread(sim, "calibrate");
    std::int64_t segments = 0;
    thread.set_main([&] { thread.exec(usec(50), [&] { ++segments; }); });
    sched.add(thread, 0);
    thread.wake();
    sim.run_for(msec(10));  // first slice, runqueue settled
    std::vector<double> ns;
    const std::int64_t allocs0 = test::allocation_count();
    const std::int64_t segs0 = segments;
    for (int b = 0; b < 7; ++b) {
      const std::int64_t before = segments;
      const double start = now_ns();
      sim.run_for(msec(100));
      ns.push_back((now_ns() - start) /
                   static_cast<double>(std::max<std::int64_t>(
                       1, segments - before)));
    }
    std::sort(ns.begin(), ns.end());
    c.cpu_ns_per_exec_segment = ns[ns.size() / 2];
    c.cpu_allocs_per_exec_segment =
        ratio(static_cast<double>(test::allocation_count() - allocs0),
              static_cast<double>(segments - segs0));
    thread.finish();
  }
  layer_done("cpu");

  {
    VApicPage vapic;
    c.apic_ns_per_pi_cycle = per_call(50000, [&] {
      vapic.pi().post(0x41);
      vapic.sync_pir();
      g_sink = g_sink + vapic.deliver();
      vapic.eoi();
    }).ns;
    EmulatedLapic lapic;
    c.apic_ns_per_lapic_cycle = per_call(50000, [&] {
      lapic.post(0x41);
      const int v = lapic.deliverable();
      lapic.begin_service(static_cast<Vector>(v));
      lapic.eoi();
      g_sink = g_sink + static_cast<std::uint64_t>(v);
    }).ns;
  }
  layer_done("apic");

  {
    Virtqueue vq("calibrate", 256);
    Packet proto;
    proto.wire_size = 1500;
    const PacketPtr pkt = make_packet(proto);
    const PerCall p = per_call(50000, [&] {
      vq.add_avail(Virtqueue::Entry{pkt, 1500});
      g_sink = g_sink + vq.kick_needed();
      auto e = vq.pop_avail();
      vq.push_used(std::move(*e));
      g_sink = g_sink + vq.interrupt_needed();
      vq.pop_used();
    });
    c.virtio_ns_per_add_pop_used = p.ns;
    c.virtio_allocs_per_add_pop_used = p.allocs;
  }
  layer_done("virtio");

  {
    std::uint64_t seq = 0;
    const PerCall p = per_call(50000, [&] {
      Packet pk;
      pk.proto = Proto::kTcp;
      pk.wire_size = 1078;
      pk.payload = 1024;
      pk.seq = ++seq;
      const PacketPtr ptr = make_packet(pk);
      g_sink = g_sink + ptr->seq;
    });
    c.net_ns_per_make_packet = p.ns;
    c.net_allocs_per_make_packet = p.allocs;

    Simulator sim;
    Link link(sim, 40.0, 1500);
    link.set_receiver([](PacketPtr p) { g_sink = g_sink + p->seq; });
    Packet proto;
    proto.wire_size = 1078;
    const PacketPtr pkt = make_packet(proto);
    c.net_ns_per_link_send = per_call(20000, [&] {
      link.transmit(pkt);
      sim.run_until(sim.now() + 2000);
    }).ns;
  }
  layer_done("net");

  {
    Simulator sim(1);
    KvmHost host(sim, 8);
    InterruptRedirector redirector(host, RedirectPolicy::kPaper);
    Vm& vm = host.create_vm("vm", {0, 1, 2, 3},
                            InterruptVirtMode::kPostedInterrupt);
    redirector.track(vm);
    const MsiMessage msi{0x40, 0, DeliveryMode::kLowestPriority};
    c.es2_ns_per_select_target = per_call(50000, [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(
                            redirector.select_target(vm, msi));
    }).ns;
  }
  layer_done("es2");

  {
    // A started, lightly run micro world: the hash and harvest walk every
    // registered component and instrument.
    Testbed tb(testbed_for(Es2Config::pi_h_r(), /*macro=*/false, 1));
    tb.start();
    tb.sim().run_for(msec(20));
    c.snapshot_ns_per_world_hash = per_call(20, [&] {
      g_sink = g_sink + tb.snapshotter().component_hashes().size();
    }).ns;
    layer_done("snapshot");
    c.metrics_ns_per_harvest = per_call(20, [&] {
      g_sink = g_sink + harvest_metrics(tb)->samples.size();
    }).ns;
    layer_done("metrics");
  }

  for (bool macro : {false, true}) {
    const TestbedOptions o = testbed_for(Es2Config::pi_h_r(), macro, 1);
    const double ns = per_call(3, [&] {
      Testbed tb(o);
      tb.start();
      g_sink = g_sink + static_cast<std::uint64_t>(tb.sim().now());
    }).ns;
    (macro ? c.harness_ns_per_testbed_build_macro
           : c.harness_ns_per_testbed_build_micro) = ns;
  }
  layer_done("harness");
  return c;
}

void LayerTally::add(const Cell& cell, const CellOutcome& outcome) {
  const MetricsData& m = *outcome.metrics;
  fired_ += outcome.fired;
  scheduled_ += sum_named(m, "eventcore.scheduled");
  cancelled_ += sum_named(m, "eventcore.cancelled");
  boxed_ += sum_named(m, "eventcore.boxed_callbacks");
  peak_live_ = std::max(peak_live_, sum_named(m, "eventcore.peak_live"));
  near_hits_ += sum_named(m, "eventcore.near_hits");
  wheel_hits_ += sum_named(m, "eventcore.wheel_hits");
  far_hits_ += sum_named(m, "eventcore.far_hits");
  context_switches_ += sum_named(m, "cfs.context_switches");
  preemptions_ += sum_named(m, "cfs.preemptions");
  for (int r = 0; r < kNumExitReasons; ++r) {
    exits_[static_cast<std::size_t>(r)] += sum_labelled(
        m, "vm.exits", "cause", exit_reason_name(static_cast<ExitReason>(r)));
  }
  irqs_ += sum_named(m, "vm.irqs_taken");
  lapic_posts_ += sum_named(m, "apic.lapic.posts");
  pi_posts_ += sum_named(m, "apic.pi.posts");
  eois_ += sum_named(m, "apic.lapic.eois") + sum_named(m, "apic.vapic.eois");
  vq_added_ += sum_named(m, "virtio.vq.added");
  notify_enables_ += sum_named(m, "virtio.vq.notify_enables");
  turns_ += sum_named(m, "vhost.worker.turns");
  wakeups_ += sum_named(m, "vhost.worker.wakeups");
  vhost_packets_ +=
      sum_named(m, "vhost.tx.packets") + sum_named(m, "vhost.rx.packets");
  poll_spins_ += sum_named(m, "vhost.worker.poll_spins");
  poll_harvests_ += sum_named(m, "vhost.worker.poll_harvests");
  kicks_ += sum_named(m, "guest.net.kicks");
  rx_polled_ += sum_named(m, "guest.net.rx_polled");
  ksoftirqd_polls_ += sum_named(m, "guest.net.overload.ksoftirqd_polls");
  link_packets_ += sum_named(m, "net.link.packets");
  drops_ += sum_named(m, "drops");
  app_ops_ += outcome.app_ops;
  quota_hits_ += sum_named(m, "vhost.tx.quota_hits");
  mode_reverts_ += sum_named(m, "vhost.tx.mode_reverts");
  // Every device MSI of a redirecting stack passes through select_target.
  if (cell.config.redirection) {
    redirected_msis_ +=
        sum_named(m, "vhost.tx.irqs") + sum_named(m, "vhost.rx.irqs");
  }
  fault_injected_ += sum_prefixed(m, "fault.");
  recovery_injected_ += sum_named(m, "recovery.injected");
  recovery_recovered_ += sum_named(m, "recovery.recovered");
  audit_sweeps_ += outcome.audit_sweeps;
  epochs_ += sum_named(m, "snapshot.epochs");
  cells_ += 1;
  (cell.macro ? macro_cells_ : micro_cells_) += 1;
}

std::vector<Metric> LayerTally::metrics(const Calibration& cal,
                                        double host_ns) const {
  const double e = fired_;
  std::vector<Metric> out;
  const auto put = [&out](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  const auto per_event = [&](std::string name, double count) {
    put(std::move(name), ratio(count, e), "1/event");
  };

  per_event("sim.scheduled_per_event", scheduled_);
  per_event("sim.cancelled_per_event", cancelled_);
  put("sim.far_hit_ratio",
      ratio(far_hits_, near_hits_ + wheel_hits_ + far_hits_), "ratio");
  put("sim.boxed_callbacks", boxed_, "count");
  put("sim.peak_live", peak_live_, "count");
  put("sim.ns_per_schedule_fire", cal.sim_ns_per_schedule_fire, "ns");
  put("sim.ns_per_cancel", cal.sim_ns_per_cancel, "ns");

  per_event("cpu.context_switches_per_event", context_switches_);
  per_event("cpu.preemptions_per_event", preemptions_);
  put("cpu.ns_per_exec_segment", cal.cpu_ns_per_exec_segment, "ns");
  put("cpu.allocs_per_exec_segment", cal.cpu_allocs_per_exec_segment,
      "allocs/call");

  for (int r = 0; r < kNumExitReasons; ++r) {
    per_event(std::string("vm.exits_per_event.") +
                  exit_reason_name(static_cast<ExitReason>(r)),
              exits_[static_cast<std::size_t>(r)]);
  }
  per_event("vm.irqs_per_event", irqs_);
  per_event("apic.lapic_posts_per_event", lapic_posts_);
  per_event("apic.pi_posts_per_event", pi_posts_);
  per_event("apic.eois_per_event", eois_);
  put("apic.ns_per_pi_cycle", cal.apic_ns_per_pi_cycle, "ns");
  put("apic.ns_per_lapic_cycle", cal.apic_ns_per_lapic_cycle, "ns");

  per_event("virtio.vq_added_per_event", vq_added_);
  per_event("virtio.notify_enables_per_event", notify_enables_);
  per_event("vhost.turns_per_event", turns_);
  put("vhost.packets_per_turn", ratio(vhost_packets_, turns_), "packets");
  per_event("vhost.wakeups_per_event", wakeups_);
  put("vhost.poll_harvest_ratio", ratio(poll_harvests_, poll_spins_), "ratio");
  put("virtio.ns_per_add_pop_used", cal.virtio_ns_per_add_pop_used, "ns");
  put("virtio.allocs_per_add_pop_used", cal.virtio_allocs_per_add_pop_used,
      "allocs/call");

  per_event("guest.kicks_per_event", kicks_);
  per_event("guest.rx_polled_per_event", rx_polled_);
  put("guest.overload.ksoftirqd_polls", ksoftirqd_polls_, "count");

  per_event("net.link_packets_per_event", link_packets_);
  per_event("net.drops_per_event", drops_);
  put("net.ns_per_make_packet", cal.net_ns_per_make_packet, "ns");
  put("net.allocs_per_make_packet", cal.net_allocs_per_make_packet,
      "allocs/call");
  put("net.ns_per_link_send", cal.net_ns_per_link_send, "ns");

  per_event("apps.ops_per_event", app_ops_);

  per_event("es2.quota_hits_per_event", quota_hits_);
  per_event("es2.mode_reverts_per_event", mode_reverts_);
  put("es2.ns_per_select_target", cal.es2_ns_per_select_target, "ns");

  per_event("fault.injected_per_event", fault_injected_);
  put("recovery.recovered_ratio",
      ratio(recovery_recovered_, recovery_injected_), "ratio");
  put("harness.audit_sweeps", audit_sweeps_, "count");

  put("snapshot.epochs", epochs_, "count");
  put("snapshot.ns_per_world_hash", cal.snapshot_ns_per_world_hash, "ns");
  put("metrics.ns_per_harvest", cal.metrics_ns_per_harvest, "ns");
  put("harness.ns_per_testbed_build_micro",
      cal.harness_ns_per_testbed_build_micro, "ns");
  put("harness.ns_per_testbed_build_macro",
      cal.harness_ns_per_testbed_build_macro, "ns");

  // Attribution: calibrated ns x counted calls, over measured host time.
  // Each estimate prices a layer's work at its isolated, cache-warm cost,
  // so the remainder (unattributed) is what the calibrations miss.
  const double shares[] = {
      e * cal.sim_ns_per_schedule_fire + cancelled_ * cal.sim_ns_per_cancel,
      context_switches_ * cal.cpu_ns_per_exec_segment,
      pi_posts_ * cal.apic_ns_per_pi_cycle +
          lapic_posts_ * cal.apic_ns_per_lapic_cycle,
      vq_added_ * cal.virtio_ns_per_add_pop_used,
      link_packets_ * (cal.net_ns_per_make_packet + cal.net_ns_per_link_send),
      redirected_msis_ * cal.es2_ns_per_select_target,
      epochs_ * cal.snapshot_ns_per_world_hash,
      cells_ * cal.metrics_ns_per_harvest,
      micro_cells_ * cal.harness_ns_per_testbed_build_micro +
          macro_cells_ * cal.harness_ns_per_testbed_build_macro,
  };
  const char* names[] = {"sim",  "cpu",      "apic",    "virtio", "net",
                         "es2",  "snapshot", "metrics", "harness"};
  double attributed = 0;
  for (std::size_t i = 0; i < std::size(shares); ++i) {
    const double share = ratio(shares[i], host_ns);
    attributed += share;
    put(std::string(names[i]) + ".est_host_share", share, "fraction");
  }
  put("unattributed.est_host_share", 1.0 - attributed, "fraction");
  return out;
}

}  // namespace perfbench
