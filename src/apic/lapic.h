// Software-emulated per-vCPU Local-APIC (the Baseline configuration).
//
// This is the KVM in-kernel LAPIC emulation as far as the event path is
// concerned: interrupt state lives in host software, so getting an
// interrupt *into* a running guest requires kicking the vCPU out of guest
// mode (EXTERNAL_INTERRUPT exit) and injecting at the next VM entry, and
// every guest EOI write traps (APIC_ACCESS exit). The exit orchestration
// itself lives in vm::Vcpu; this class holds the register state.
#pragma once

#include <cstdint>

#include "apic/irr.h"
#include "apic/vectors.h"

namespace es2 {

class SnapshotWriter;

class EmulatedLapic {
 public:
  /// Records a pending interrupt (hypervisor-side IRR write).
  void post(Vector vector) {
    irr_.set(vector);
    ++posts_;
  }

  bool has_pending() const { return irr_.any(); }

  /// Highest-priority pending vector not masked by one in service, or -1.
  /// The x86 rule: a pending vector is deliverable only if its priority
  /// class exceeds the highest in-service vector's.
  int deliverable() const;

  /// Moves the given pending vector to in-service (interrupt injection).
  void begin_service(Vector vector);

  /// Guest EOI: retires the highest in-service vector.
  /// Returns true if another interrupt became deliverable.
  bool eoi();

  int in_service_count() const { return isr_.count(); }
  int pending_count() const { return irr_.count(); }
  bool in_service(Vector v) const { return isr_.test(v); }

  /// Lifetime totals (metrics probes): interrupts posted to the IRR and
  /// EOI writes serviced. Never reset by reset() — the registry samples
  /// cumulative values.
  std::int64_t posts() const { return posts_; }
  std::int64_t eois() const { return eois_; }

  void reset();

  /// Hashes IRR/ISR words plus lifetime counters.
  void snapshot_state(SnapshotWriter& w) const;

 private:
  IrqBitmap irr_;
  IrqBitmap isr_;
  std::int64_t posts_ = 0;
  std::int64_t eois_ = 0;
};

}  // namespace es2
