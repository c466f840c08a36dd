// Virtqueue with VIRTIO_RING_F_EVENT_IDX notification suppression, in
// either the virtio 1.0 split layout or the virtio 1.1 packed layout.
//
// The shared-memory channel between the guest's virtio-net front-end and
// the host's vhost-net back-end (paper §V-A). What matters for the event
// path is the *notification protocol*, which is modeled faithfully:
//
//  * guest->host kicks are suppressed via the avail_event index / flags:
//    the guest only executes the (trapping) kick instruction when its new
//    avail index crosses the host's advertised event index — this is the
//    field ES2 manipulates to "permanently disable the notification
//    mechanism in the polling mode";
//  * host->guest interrupts are symmetrically suppressed via used_event,
//    which is how the guest's NAPI disables device interrupts while
//    polling.
//
// The packed layout replaces the free-running indices with a single
// descriptor ring plus driver/device wrap counters; suppression decisions
// compare (ring offset, wrap) pairs from the driver/device event structs
// instead of monotonic indices. Because at most `capacity` descriptors are
// outstanding, the two formulations are observably equivalent — the
// differential ring-conformance suite pins that equivalence.
//
// Descriptor accounting is real: a fixed ring capacity is shared between
// guest-posted (avail), host-owned (in flight) and completed (used)
// entries, so backpressure — a full TX ring stalling the guest — emerges
// naturally, which the hybrid polling results depend on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "base/ring.h"
#include "base/units.h"
#include "net/packet.h"
#include "stats/meters.h"
#include "virtio/device_status.h"

namespace es2 {

class MetricsRegistry;

class Virtqueue {
 public:
  struct Entry {
    PacketPtr packet;  // null for empty (receive) buffers
    Bytes len = 0;
  };

  Virtqueue(std::string name, int capacity,
            RingLayout layout = RingLayout::kSplit);

  const std::string& name() const { return name_; }
  int capacity() const { return capacity_; }
  RingLayout layout() const { return layout_; }

  // --- guest-side API ----------------------------------------------------

  /// Free descriptor slots available to the guest.
  int free_slots() const {
    return capacity_ - avail_count() - in_flight_ - used_count();
  }

  /// Posts a buffer; returns false if the ring is full.
  bool add_avail(Entry entry);

  /// Must be called right after a successful add_avail: true if the guest
  /// must notify the host (event-idx crossing semantics).
  bool kick_needed() const;

  /// Completed entries ready for the guest.
  int used_count() const { return static_cast<int>(used_.size()); }
  std::optional<Entry> pop_used();

  /// Guest-side interrupt (call) suppression, used by NAPI.
  void enable_interrupts() {
    interrupts_enabled_ = true;
    used_event_ = used_idx_;
    ++irq_enables_;
  }
  void disable_interrupts() { interrupts_enabled_ = false; }
  bool interrupts_enabled() const { return interrupts_enabled_; }

  // --- host-side API -----------------------------------------------------

  int avail_count() const { return static_cast<int>(avail_.size()); }
  bool has_avail() const { return !avail_.empty(); }

  /// Takes one guest-posted buffer for processing.
  std::optional<Entry> pop_avail();

  /// Completes an entry back to the guest.
  void push_used(Entry entry);

  /// Must be called right after push_used: true if the host must raise the
  /// guest interrupt (event-idx crossing semantics).
  bool interrupt_needed() const;

  /// Host-side kick suppression. `enable_notifications` returns true if
  /// new work raced in and the host must re-check the queue (the standard
  /// vhost re-check after re-enable).
  bool enable_notifications();
  void disable_notifications() { notifications_enabled_ = false; }
  bool notifications_enabled() const { return notifications_enabled_; }

  // --- lifecycle ----------------------------------------------------------

  /// Per-queue enable bit (virtio 1.1 queue_enable). Queues start enabled
  /// for compatibility with directly-constructed test rings; the device
  /// lifecycle disables them across reset/renegotiation.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Returns the ring to its just-constructed state: rings emptied,
  /// indices and EVENT_IDX suppression state zeroed, any injected or
  /// detected fault cleared. Cumulative suppression telemetry
  /// (notify_enables/irq_enables) survives, same as the LAPIC's post/EOI
  /// counters: the registry samples them as lifetime values.
  void reset();

  /// Bumped by every reset(). Async completions capture the epoch at
  /// pop_avail time and drop themselves if a reset intervened, so a
  /// quiesce can never complete a descriptor into the wrong ring
  /// generation (push_used on a fresh ring would trip the in-flight
  /// invariant).
  std::int64_t reset_epoch() const { return reset_epoch_; }

  /// O(1) accounting audit of the shared ring. The healthy invariant is
  /// avail_idx == avail_count + in_flight + used_idx; a torn avail-idx
  /// write breaks it upward, a used-ring overrun downward. Injected
  /// descriptor-table faults (out-of-range head, duplicated in-flight
  /// head) are reported directly. Never asserts.
  RingFault check_integrity() const;

  /// Detection result, sticky until reset(): the backend quarantines a
  /// queue by recording what it found, and the guest's recovery ladder
  /// reads it back to pick a rung.
  RingFault pending_fault() const { return pending_fault_; }
  void flag_fault(RingFault f) { pending_fault_ = f; }

  /// Fault injection (FaultInjector only): corrupt the shared state the
  /// way a buggy or malicious guest would. Tears/overruns mutate the real
  /// indices so detection derives them from accounting; descriptor-table
  /// faults set a marker (the model has no real descriptor table).
  void inject_desc_out_of_range() { injected_fault_ = RingFault::kDescOutOfRange; }
  void inject_duplicate_head() { injected_fault_ = RingFault::kDuplicateHead; }
  void inject_avail_tear() { avail_idx_ += capacity_ + 3; }
  void inject_used_overrun() { used_idx_ += capacity_ + 1; }
  /// Packed-layout analogue of a torn avail write: the driver wrap counter
  /// no longer agrees with the descriptor position it published.
  void inject_wrap_tear() { driver_wrap_ = !driver_wrap_; }

  /// Serializes the lifecycle/integrity state (enable bit, reset epoch,
  /// fault markers). Kept out of snapshot_state so faults-off worlds keep
  /// their exact es2-snap-v1 byte layout; the owning device embeds this
  /// in its fault-gated lifecycle section.
  void snapshot_lifecycle_state(SnapshotWriter& w) const;

  // --- statistics ---------------------------------------------------------

  std::int64_t total_added() const { return avail_idx_; }
  std::int64_t total_used() const { return used_idx_; }
  int in_flight() const { return in_flight_; }

  /// Suppression-protocol activity: times the host re-armed guest kicks
  /// (leaving polling mode) and times the guest re-armed interrupts
  /// (leaving NAPI poll). Low enable counts under load mean suppression
  /// is sticking — the paper's polling-mode signature.
  std::int64_t notify_enables() const { return notify_enables_; }
  std::int64_t irq_enables() const { return irq_enables_; }

  /// Registers this queue's occupancy and suppression telemetry as probes
  /// (labels vm=<vm_name>, vq=<name>).
  void register_metrics(MetricsRegistry& registry,
                        const std::string& vm_name);

  /// Serializes ring occupancy (every avail/used entry's packet metadata)
  /// and the full EVENT_IDX suppression state. Embedded in the owning
  /// device's snapshot section.
  void snapshot_state(SnapshotWriter& w) const;

 private:
  /// Maps a monotonic descriptor id to its packed-ring position: the slot
  /// offset plus the wrap-counter phase the driver/device had when writing
  /// it. Within the ≤ capacity-deep outstanding window, position equality
  /// is exactly id equality — the property the packed suppression and
  /// integrity checks rely on.
  struct PackedPos {
    int offset;
    bool wrap;
    bool operator==(const PackedPos& o) const {
      return offset == o.offset && wrap == o.wrap;
    }
  };
  PackedPos packed_pos(std::int64_t id) const {
    return {static_cast<int>(id % capacity_), ((id / capacity_) % 2) == 0};
  }

  std::string name_;
  int capacity_;
  RingLayout layout_ = RingLayout::kSplit;
  Ring<Entry> avail_;  // both sized to capacity_: they never grow
  Ring<Entry> used_;
  int in_flight_ = 0;

  // Packed-layout wrap counters (virtio 1.1 §2.7.1): flipped every time
  // the driver/device position wraps past the end of the descriptor ring.
  // Redundant with avail_idx_/used_idx_ when healthy — check_integrity
  // cross-checks them, which is how a wrap tear is detected.
  bool driver_wrap_ = true;
  bool device_wrap_ = true;

  // Guest->host notification state (host-written, guest-read).
  bool notifications_enabled_ = true;
  std::int64_t avail_idx_ = 0;    // total entries the guest has posted
  std::int64_t avail_event_ = 0;  // host: "kick me when you cross this"

  // Host->guest interrupt state (guest-written, host-read).
  bool interrupts_enabled_ = true;
  std::int64_t used_idx_ = 0;     // total entries the host has completed
  std::int64_t used_event_ = 0;

  std::int64_t notify_enables_ = 0;
  std::int64_t irq_enables_ = 0;

  // Lifecycle state (snapshot via snapshot_lifecycle_state only).
  bool enabled_ = true;
  std::int64_t reset_epoch_ = 0;
  RingFault injected_fault_ = RingFault::kNone;
  RingFault pending_fault_ = RingFault::kNone;
};

}  // namespace es2
