// Deterministic zero-alloc span profiler for the simulated event path.
//
// `span_begin`/`span_end` bracket a unit of simulated work that crosses
// continuation boundaries (a vhost worker turn, a NAPI poll pass,
// dispatch→EOI interrupt service). Spans accumulate per-(component, key)
// call counts and *sim-time* totals, and push slices into a fixed ring
// for Perfetto export next to the trace's journey bars. The key is the
// per-queue / per-vm label dimension (flat queue index for backend
// spans, vm*16+pair or vm*16+vcpu for guest spans).
//
// The profiler is passive (no RNG draws, no scheduled events, no
// model-state writes — enabling it cannot perturb a run, asserted by
// tests) and its output is deterministic: same seed → identical counts
// and sim-time totals. It measures no host time.
//
// The span table and the slice ring are preallocated at construction, so
// the steady-state record paths perform zero heap allocations (asserted
// via es2_alloc_hook).
//
// Like the tracer's, the model-layer call sites are compiled into every
// build and record only while a Profiler is attached to the simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "base/units.h"

namespace es2 {

enum class ProfComp : std::uint8_t {
  kVhostTurnTx = 0,  // TX handler turn (key = flat queue index)
  kVhostTurnRx,      // RX handler turn (key = flat queue index)
  kGuestNapi,        // guest NAPI poll pass (key = vm*16+pair)
  kGuestIrqService,  // dispatch -> EOI (key = vm*16+vcpu)
  kCount
};

inline constexpr std::size_t kProfComps =
    static_cast<std::size_t>(ProfComp::kCount);

/// Stable lowercase name ("vhost_turn_tx", ...).
const char* prof_comp_name(ProfComp c);

struct ProfileOptions {
  /// Harness convenience: the Testbed only constructs a Profiler (and
  /// attaches it to the simulator) when set.
  bool enabled = false;
  /// Slice ring capacity; once full the ring overwrites the oldest.
  std::size_t slice_capacity = std::size_t{1} << 14;
};

/// One recorded span slice (for Perfetto export).
struct ProfSlice {
  SimTime begin = 0;
  SimTime end = 0;
  ProfComp comp = ProfComp::kVhostTurnTx;
  std::uint16_t key = 0;
};

/// Aggregate for one (component, key): spans only.
struct ProfSpanStat {
  ProfComp comp = ProfComp::kVhostTurnTx;
  std::uint16_t key = 0;
  std::int64_t count = 0;
  std::int64_t sim_ns = 0;
};

/// Self-contained snapshot, safe to keep past the profiler's teardown.
struct ProfileData {
  std::vector<ProfSpanStat> spans;  // (comp, key) ascending, count > 0
  std::vector<ProfSlice> slices;    // oldest first
  std::uint64_t slices_total = 0;   // recorded incl. overwritten
  std::uint64_t dropped = 0;        // unbalanced span begins/ends
};

class Profiler {
 public:
  explicit Profiler(ProfileOptions options = {});
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // --- async component spans (sim-time) --------------------------------
  // One open slot per (comp, key); a begin over an already-open slot
  // closes nothing and counts as dropped (the model's span pairs are
  // strictly nested per slot, so this only fires on instrumentation
  // bugs). Keys clamp into [0, kMaxKeys).
  void span_begin(ProfComp comp, unsigned key, SimTime now);
  void span_end(ProfComp comp, unsigned key, SimTime now);

  /// Deterministic aggregate snapshot.
  ProfileData data() const;

  static constexpr std::size_t kMaxKeys = 256;

 private:
  struct SpanSlot {
    SimTime open = -1;
    std::int64_t count = 0;
    std::int64_t sim_ns = 0;
  };
  std::vector<SpanSlot> span_slots_;  // kProfComps x kMaxKeys
  std::vector<ProfSlice> ring_;       // capacity slice_capacity
  std::size_t ring_capacity_;
  std::uint64_t slices_total_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace es2
