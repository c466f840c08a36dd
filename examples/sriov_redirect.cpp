// Example: ES2's applicability to SR-IOV direct device assignment
// (paper §VII).
//
// A VM owns a virtual function directly: transmits are untrapped doorbell
// writes (no I/O-request exits by construction) and ingress interrupts are
// VT-d-posted (no interrupt exits). The one remaining event-path problem
// is scheduling delay when the interrupt's affinity vCPU is offline — and
// intelligent interrupt redirection fixes exactly that, unchanged.
//
//   $ ./sriov_redirect [--fast]
#include <cstdio>

#include "base/strings.h"
#include "base/table.h"
#include "es2/sriov.h"
#include "stats/histogram.h"
#include "harness/testbed.h"
#include "example_args.h"

using namespace es2;

namespace {

/// Minimal guest for the VF: echoes each received packet back through the
/// VF from its interrupt handler (a latency reflector).
class VfEchoGuest final : public GuestCpu {
 public:
  VfEchoGuest(Vm& vm, DirectNic& nic) : vm_(vm), nic_(nic) {
    vm.set_guest(this);
  }

  void run(int vcpu_index) override {
    // Burn loop: keeps every vCPU runnable like the paper's test setup.
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    vcpu.guest_exec(115000, [this, vcpu_index] { run(vcpu_index); });
  }

  void take_interrupt(int vcpu_index, Vector vector) override {
    Vcpu& vcpu = vm_.vcpu(vcpu_index);
    if (vector != nic_.rx_msi().vector) {
      vcpu.guest_exec(2000, [&vcpu] {
        vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
      });
      return;
    }
    vcpu.guest_exec(4000, [this, &vcpu] {
      if (!nic_.rx_pending()) {
        vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
        return;
      }
      PacketPtr request = nic_.pop_rx();
      Packet reply;
      reply.proto = Proto::kIcmp;
      reply.flow = request->flow;
      reply.payload = request->payload;
      reply.wire_size = request->wire_size;
      reply.probe_id = request->probe_id;
      reply.sent_at = request->sent_at;
      nic_.transmit(vcpu, make_packet(std::move(reply)), [this, &vcpu] {
        if (nic_.rx_pending()) {
          take_interrupt(vcpu.index(), nic_.rx_msi().vector);
          return;
        }
        vcpu.guest_eoi([&vcpu] { vcpu.irq_done(); });
      });
    });
  }

 private:
  Vm& vm_;
  DirectNic& nic_;
};

}  // namespace

int main(int argc, char** argv) {
  const bool fast = es2::example::fast_only(argc, argv);
  const int probes = fast ? 40 : 120;

  Table t({"Deployment", "p50 RTT", "p99 RTT", "VM exits/s"});
  for (const bool redirect : {false, true}) {
    Simulator sim(1);
    KvmHost host(sim, 8);
    Es2Config cfg = redirect ? Es2Config::pi_h_r() : Es2Config::pi();
    Es2System es2sys(host, cfg);

    // Four 4-vCPU VMs stacked on cores 0-3; VM 0 owns the VF.
    std::vector<std::unique_ptr<VfEchoGuest>> guests;
    std::vector<std::unique_ptr<DirectNic>> nics;
    DuplexLink cable(sim, 40.0, 1500);
    for (int v = 0; v < 4; ++v) {
      Vm& vm = host.create_vm(format("vm%d", v), {0, 1, 2, 3}, cfg.irq_mode());
      if (v == 0) {
        nics.push_back(std::make_unique<DirectNic>(vm, cable.a_to_b));
        guests.push_back(std::make_unique<VfEchoGuest>(vm, *nics.back()));
        if (redirect) es2sys.redirector()->track(vm);
      } else {
        nics.push_back(std::make_unique<DirectNic>(vm, cable.a_to_b));
        guests.push_back(std::make_unique<VfEchoGuest>(vm, *nics.back()));
      }
    }
    cable.b_to_a.set_receiver(
        [&](PacketPtr p) { nics[0]->receive_from_wire(std::move(p)); });

    PeerHost peer(sim, cable.b_to_a);
    peer.attach_rx(cable.a_to_b);
    Histogram rtt;
    std::uint64_t next_probe = 1;
    peer.register_flow(7, [&](const PacketPtr& p) {
      rtt.record(sim.now() - p->sent_at);
    });
    PeriodicTimer prober(sim, msec(40), [&] {
      Packet p;
      p.proto = Proto::kIcmp;
      p.flow = 7;
      p.payload = 56;
      p.wire_size = 110;
      p.probe_id = next_probe++;
      p.sent_at = sim.now();
      peer.send(make_packet(std::move(p)));
    });

    for (int v = 0; v < 4; ++v) host.vm(v).start();
    prober.start();
    sim.run_for(msec(40) * (probes + 2));

    const ExitStats exits = host.vm(0).aggregate_stats();
    t.add_row({redirect ? "VT-d PI + redirection (ES2)" : "VT-d PI only",
               fixed(rtt.p50() / 1e6, 2) + "ms", fixed(rtt.p99() / 1e6, 2) + "ms",
               with_commas(static_cast<std::int64_t>(
                   exits.total_rate(sim.now())))});
  }
  std::printf("SR-IOV VF echo latency under 4x core oversubscription\n%s",
              t.render().c_str());
  std::printf("\nDirect assignment removes I/O-request exits by construction\n"
              "and VT-d PI removes interrupt exits; redirection then removes\n"
              "the remaining vCPU scheduling delay (paper §VII).\n");
  return 0;
}
