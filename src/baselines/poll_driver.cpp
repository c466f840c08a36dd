#include "baselines/poll_driver.h"

#include "base/assert.h"

namespace es2 {

PollModeDriverTask::PollModeDriverTask(GuestOs& os, VirtioNetFrontend& dev,
                                       int vcpu_affinity, Params params)
    : GuestTask(os, "poll-mode-driver", vcpu_affinity), dev_(dev),
      params_(params) {
  // Interrupt substitution: the device never interrupts again.
  dev.backend().rx_vq(0).disable_interrupts();
}

double PollModeDriverTask::wasted_fraction() const {
  const std::int64_t total = wasted_polls_ + polled_packets_;
  if (total == 0) return 0.0;
  return static_cast<double>(wasted_polls_) / static_cast<double>(total);
}

void PollModeDriverTask::run_unit(Vcpu& vcpu) {
  // One poll probe per scheduling turn; bursts drain up to `burst` packets.
  vcpu.guest_exec(params_.probe, [this, &vcpu] {
    Virtqueue& rx = dev_.backend().rx_vq(0);
    // Keep interrupts off even if NAPI-style code re-enabled them.
    rx.disable_interrupts();
    if (rx.used_count() == 0) {
      ++wasted_polls_;
      os().task_done(vcpu);  // spin again on the next turn
      return;
    }
    consume_one(vcpu, params_.burst);
  });
}

void PollModeDriverTask::consume_one(Vcpu& vcpu, int budget_left) {
  Virtqueue& rx = dev_.backend().rx_vq(0);
  auto entry = rx.pop_used();
  if (!entry || budget_left <= 0) {
    // Refill what we consumed so the backend never starves for buffers.
    int added = 0;
    bool kick = false;
    while (rx.free_slots() > 0) {
      const bool ok = rx.add_avail(Virtqueue::Entry{nullptr, 0});
      ES2_CHECK(ok);
      kick = kick || rx.kick_needed();
      ++added;
    }
    if (added > 0) {
      const Cycles cost =
          static_cast<Cycles>(added) * os().params().rx_refill_per_buffer;
      vcpu.guest_exec(cost, [this, &vcpu, kick] {
        if (kick) {
          vcpu.guest_io_kick([this] { dev_.backend().notify_rx(0); },
                             [this, &vcpu] { os().task_done(vcpu); });
          return;
        }
        os().task_done(vcpu);
      });
      return;
    }
    os().task_done(vcpu);
    return;
  }
  ES2_CHECK(entry->packet != nullptr);
  const GuestParams& p = os().params();
  const Cycles cost =
      p.rx_udp_per_packet +
      static_cast<Cycles>(p.rx_cycles_per_byte *
                          static_cast<double>(entry->packet->payload));
  PacketPtr packet = entry->packet;
  vcpu.guest_exec(cost, [this, &vcpu, budget_left,
                         packet = std::move(packet)]() mutable {
    ++polled_packets_;
    os().deliver_to_stack(vcpu, packet, [this, &vcpu, budget_left] {
      consume_one(vcpu, budget_left - 1);
    });
  });
}

}  // namespace es2
