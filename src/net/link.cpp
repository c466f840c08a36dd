#include "net/link.h"

#include <algorithm>

#include "base/assert.h"
#include "fault/fault.h"
#include "metrics/metrics.h"

namespace es2 {

Link::Link(Simulator& sim, double bandwidth_gbps, SimDuration latency)
    : sim_(sim), bandwidth_bps_(bandwidth_gbps * 1e9), latency_(latency) {
  ES2_CHECK(bandwidth_gbps > 0);
  ES2_CHECK(latency >= 0);
}

SimDuration Link::serialization_delay(Bytes size) const {
  const double ns = static_cast<double>(size) * 8.0 * 1e9 / bandwidth_bps_;
  return std::max<SimDuration>(1, static_cast<SimDuration>(ns));
}

void Link::transmit(PacketPtr packet) {
  ES2_CHECK_MSG(receiver_ != nullptr, "link has no receiver");
  if (backpressure_keep_ > 1 &&
      (backpressure_seq_++ % static_cast<std::uint64_t>(backpressure_keep_)) !=
          0) {
    // Shed at the NIC before serialization: the whole point of pushing
    // backpressure to the link is that a shed packet costs nothing
    // downstream — no wire time, no vhost turn, no guest poll.
    shed_.add(1);
    return;
  }
  const SimTime start = std::max(sim_.now(), line_free_at_);
  const SimTime done = start + serialization_delay(packet->wire_size);
  line_free_at_ = done;
  packets_.add(1);
  bytes_.add(packet->wire_size);
  SimDuration extra = 0;
  if (faults_ != nullptr) {
    // The sender still serializes a lost packet onto the wire; it just
    // never reaches the far NIC.
    if (faults_->drop_packet()) {
      dropped_.add(1);
      return;
    }
    if (faults_->duplicate_packet()) {
      ++in_flight_;
      sim_.at(done + latency_ + 1, [this, packet] {
        --in_flight_;
        receiver_(packet);
      });
    }
    extra = faults_->reorder_extra_delay();
  }
  ++in_flight_;
  sim_.at(done + latency_ + extra, [this, packet = std::move(packet)]() mutable {
    --in_flight_;
    receiver_(std::move(packet));
  });
}

void Link::snapshot_state(SnapshotWriter& w) const {
  w.put_i64(line_free_at_);
  w.put_u32(static_cast<std::uint32_t>(in_flight_));
  w.put_i64(packets_.value());
  w.put_i64(bytes_.value());
  w.put_i64(dropped_.value());
  w.put_u32(static_cast<std::uint32_t>(backpressure_keep_));
  w.put_u64(backpressure_seq_);
  w.put_i64(shed_.value());
}

void Link::register_metrics(MetricsRegistry& registry,
                            const std::string& direction) {
  MetricLabels labels = {{"link", direction}};
  registry.probe("net.link.packets", labels, [this] {
    return static_cast<double>(packets_.value());
  });
  registry.probe("net.link.bytes", labels, [this] {
    return static_cast<double>(bytes_.value());
  });
  registry.probe("net.link.dropped", labels, [this] {
    return static_cast<double>(dropped_.value());
  });
}

void Link::register_drop_metrics(MetricsRegistry& registry,
                                 const std::string& direction) {
  registry.probe("drops", {{"cause", "wire"}, {"link", direction}}, [this] {
    return static_cast<double>(dropped_.value());
  });
  registry.probe("drops", {{"cause", "backpressure"}, {"link", direction}},
                 [this] { return static_cast<double>(shed_.value()); });
}

}  // namespace es2
