#include "virtio/virtqueue.h"

#include "base/assert.h"
#include "metrics/metrics.h"

namespace es2 {

namespace {
/// vring_need_event() from the virtio spec: fire iff `new_idx` crosses
/// `event + 1`, given the previous index `old_idx`.
bool need_event(std::int64_t event, std::int64_t new_idx, std::int64_t old_idx) {
  return (new_idx - event - 1) < (new_idx - old_idx) && (new_idx - old_idx) > 0;
}
}  // namespace

Virtqueue::Virtqueue(std::string name, int capacity, RingLayout layout)
    : name_(std::move(name)), capacity_(capacity), layout_(layout) {
  ES2_CHECK_MSG(capacity_ > 0, "virtqueue capacity must be positive");
  avail_ = Ring<Entry>(static_cast<std::size_t>(capacity_));
  used_ = Ring<Entry>(static_cast<std::size_t>(capacity_));
}

bool Virtqueue::add_avail(Entry entry) {
  if (free_slots() <= 0) return false;
  avail_.push_back(std::move(entry));
  ++avail_idx_;
  if (avail_idx_ % capacity_ == 0) driver_wrap_ = !driver_wrap_;
  return true;
}

bool Virtqueue::kick_needed() const {
  if (!notifications_enabled_) return false;
  if (layout_ == RingLayout::kPacked) {
    // Packed event suppression (virtio 1.1 §2.7.14): the device's driver
    // event struct names one descriptor position; the driver kicks when
    // the descriptor it just made available sits at that position. The
    // device re-arms at its current read position (enable_notifications
    // sets avail_event_ = avail_idx_), so this fires exactly when the
    // split event-idx protocol would.
    return packed_pos(avail_idx_ - 1) == packed_pos(avail_event_);
  }
  return need_event(avail_event_, avail_idx_, avail_idx_ - 1);
}

std::optional<Virtqueue::Entry> Virtqueue::pop_avail() {
  if (avail_.empty()) return std::nullopt;
  Entry entry = std::move(avail_.front());
  avail_.pop_front();
  ++in_flight_;
  return entry;
}

void Virtqueue::push_used(Entry entry) {
  ES2_CHECK_MSG(in_flight_ > 0, "push_used without a popped descriptor");
  --in_flight_;
  used_.push_back(std::move(entry));
  ++used_idx_;
  if (used_idx_ % capacity_ == 0) device_wrap_ = !device_wrap_;
}

bool Virtqueue::interrupt_needed() const {
  if (!interrupts_enabled_) return false;
  if (layout_ == RingLayout::kPacked) {
    // Symmetric to kick_needed: the driver's device event struct names the
    // used position it wants an interrupt for.
    return packed_pos(used_idx_ - 1) == packed_pos(used_event_);
  }
  return need_event(used_event_, used_idx_, used_idx_ - 1);
}

std::optional<Virtqueue::Entry> Virtqueue::pop_used() {
  if (used_.empty()) return std::nullopt;
  Entry entry = std::move(used_.front());
  used_.pop_front();
  return entry;
}

void Virtqueue::reset() {
  avail_.clear();
  used_.clear();
  in_flight_ = 0;
  notifications_enabled_ = true;
  avail_idx_ = 0;
  avail_event_ = 0;
  interrupts_enabled_ = true;
  used_idx_ = 0;
  used_event_ = 0;
  driver_wrap_ = true;
  device_wrap_ = true;
  injected_fault_ = RingFault::kNone;
  pending_fault_ = RingFault::kNone;
  ++reset_epoch_;
}

RingFault Virtqueue::check_integrity() const {
  if (injected_fault_ != RingFault::kNone) return injected_fault_;
  const std::int64_t slack =
      avail_idx_ - used_idx_ - in_flight_ - avail_count();
  if (slack > 0) return RingFault::kAvailIdxTorn;
  if (slack < 0) return RingFault::kUsedOverrun;
  if (layout_ == RingLayout::kPacked) {
    // The wrap counters are redundant with the positions when healthy; a
    // disagreement means a descriptor was published under the wrong phase
    // (the packed-ring equivalent of a torn index write). Checked after
    // the slack audit so index tears report as tears, not wrap faults.
    if (driver_wrap_ != (((avail_idx_ / capacity_) % 2) == 0) ||
        device_wrap_ != (((used_idx_ / capacity_) % 2) == 0)) {
      return RingFault::kBadWrapCounter;
    }
  }
  return RingFault::kNone;
}

bool Virtqueue::enable_notifications() {
  notifications_enabled_ = true;
  avail_event_ = avail_idx_;
  ++notify_enables_;
  // vhost re-check: work may have been added between the last empty poll
  // and the re-enable.
  return has_avail();
}

void Virtqueue::register_metrics(MetricsRegistry& registry,
                                 const std::string& vm_name) {
  MetricLabels labels = {{"vm", vm_name}, {"vq", name_}};
  registry.probe("virtio.vq.added", labels, [this] {
    return static_cast<double>(avail_idx_);
  });
  registry.probe("virtio.vq.used", labels, [this] {
    return static_cast<double>(used_idx_);
  });
  registry.probe("virtio.vq.in_flight", labels, [this] {
    return static_cast<double>(in_flight_);
  });
  registry.probe("virtio.vq.notify_enables", labels, [this] {
    return static_cast<double>(notify_enables_);
  });
  registry.probe("virtio.vq.irq_enables", labels, [this] {
    return static_cast<double>(irq_enables_);
  });
}

void Virtqueue::snapshot_state(SnapshotWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(capacity_));
  w.put_u32(static_cast<std::uint32_t>(avail_.size()));
  for (const Entry& e : avail_) {
    snapshot_packet(w, e.packet);
    w.put_i64(e.len);
  }
  w.put_u32(static_cast<std::uint32_t>(used_.size()));
  for (const Entry& e : used_) {
    snapshot_packet(w, e.packet);
    w.put_i64(e.len);
  }
  w.put_u32(static_cast<std::uint32_t>(in_flight_));
  w.put_bool(notifications_enabled_);
  w.put_i64(avail_idx_);
  w.put_i64(avail_event_);
  w.put_bool(interrupts_enabled_);
  w.put_i64(used_idx_);
  w.put_i64(used_event_);
  w.put_i64(notify_enables_);
  w.put_i64(irq_enables_);
  if (layout_ == RingLayout::kPacked) {
    // Packed-only fields are appended so split rings keep their exact
    // es2-snap-v1 byte layout (BENCH_snapshot gates section sizes at
    // tolerance zero).
    w.put_bool(driver_wrap_);
    w.put_bool(device_wrap_);
  }
}

void Virtqueue::snapshot_lifecycle_state(SnapshotWriter& w) const {
  w.put_bool(enabled_);
  w.put_i64(reset_epoch_);
  w.put_u8(static_cast<std::uint8_t>(injected_fault_));
  w.put_u8(static_cast<std::uint8_t>(pending_fault_));
}

}  // namespace es2
