// Span builder: stitches trace records into per-I/O-request journeys.
//
// A journey is every record sharing one correlation id, reduced to its
// landmark timestamps:
//
//   kick      guest kick or wire arrival (the journey's origin)
//   backend   first vhost handler turn that serviced it
//   msi       MSI raise (or PI post for timer/IPI journeys)
//   dispatch  vector dispatched through the guest IDT
//   eoi       the matching EOI write
//
// Landmarks record the FIRST occurrence only — a coalesced journey keeps
// its earliest post — and any prefix may be missing (a timer interrupt has
// no kick; a suppressed TX interrupt has no msi/dispatch/eoi). Stage
// histograms are fed from every journey that has both endpoints of the
// stage, so partial journeys still contribute the stages they completed.
//
// This is the one place records are grouped by corr: the blame analyzer
// (profile/blame.h) cuts the same spans into per-component segments.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/histogram.h"
#include "trace/trace.h"

namespace es2 {

struct JourneySpan {
  std::uint64_t corr = 0;
  std::int8_t vm = -1;
  std::int8_t vcpu = -1;
  /// Flat queue index (2*pair+dir) of the origin record — a wire arrival
  /// names its pair's RX queue — or of the first turn when the origin is
  /// missing; -1 when neither was seen.
  std::int16_t queue = -1;
  /// The journey began with a guest TX kick (not an RX refill or wire
  /// arrival).
  bool tx_origin = false;
  // Landmark sim-times (ns); -1 = landmark never observed.
  SimTime kick = -1;
  SimTime backend = -1;
  SimTime suppressed = -1;  // first EVENT_IDX interrupt suppression
  SimTime msi = -1;
  SimTime dispatch = -1;
  SimTime eoi = -1;

  /// A journey that reached interrupt dispatch and completion.
  bool complete() const { return dispatch >= 0 && eoi >= 0; }
  /// Earliest observed landmark, or -1 for an empty span.
  SimTime start() const {
    for (SimTime t : {kick, backend, msi, dispatch, eoi}) {
      if (t >= 0) return t;
    }
    return -1;
  }
};

/// Per-stage latency breakdown over a set of journeys (all values ns).
struct SpanBreakdown {
  std::int64_t journeys = 0;
  std::int64_t complete = 0;
  std::int64_t partial = 0;
  Histogram kick_to_backend;   // kick/wire arrival -> handler turn
  Histogram backend_to_msi;    // handler turn -> MSI raise
  Histogram msi_to_dispatch;   // MSI raise -> guest IDT dispatch
  Histogram dispatch_to_eoi;   // handler dispatch -> EOI
  Histogram end_to_end;        // first landmark -> EOI
};

/// Builds journeys from `records` (any order; stitched by corr) and
/// returns the stage breakdown. Pass `spans` to also receive the spans,
/// ordered by first appearance in the record stream.
SpanBreakdown build_spans(const std::vector<TraceRecord>& records,
                          std::vector<JourneySpan>* spans = nullptr);

}  // namespace es2
