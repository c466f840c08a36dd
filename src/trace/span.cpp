#include "trace/span.h"

#include <unordered_map>

namespace es2 {

namespace {

void note(SimTime& landmark, SimTime t) {
  if (landmark < 0) landmark = t;
}

}  // namespace

SpanBreakdown build_spans(const std::vector<TraceRecord>& records,
                          std::vector<JourneySpan>* spans_out) {
  std::vector<JourneySpan> spans;
  std::unordered_map<std::uint64_t, std::size_t> by_corr;
  by_corr.reserve(records.size() / 4 + 1);

  for (const TraceRecord& r : records) {
    if (r.corr == 0) continue;
    auto [it, inserted] = by_corr.try_emplace(r.corr, spans.size());
    if (inserted) {
      spans.emplace_back();
      spans.back().corr = r.corr;
    }
    JourneySpan& span = spans[it->second];
    // Tracked independently: a journey's early records are backend-side
    // (vm known, vcpu not); the vcpu becomes known at dispatch.
    if (span.vm < 0 && r.vm >= 0) span.vm = r.vm;
    if (span.vcpu < 0 && r.vcpu >= 0) span.vcpu = r.vcpu;
    switch (r.kind) {
      case TraceKind::kKick:
      case TraceKind::kWireRx:
        if (span.kick < 0) {
          span.kick = r.t;
          const bool kick = r.kind == TraceKind::kKick;
          span.queue = static_cast<std::int16_t>(kick ? r.arg : 2 * r.arg + 1);
          span.tx_origin = kick && r.arg % 2 == 0;
        }
        break;
      case TraceKind::kWorkerTurn:
        note(span.backend, r.t);
        if (span.queue < 0) span.queue = static_cast<std::int16_t>(r.arg);
        break;
      case TraceKind::kIrqSuppressed:
        note(span.suppressed, r.t);
        break;
      case TraceKind::kMsiRaise:
      case TraceKind::kPiPost:
      case TraceKind::kLapicPost:
        note(span.msi, r.t);
        break;
      case TraceKind::kIrqDispatch:
        note(span.dispatch, r.t);
        break;
      case TraceKind::kEoi:
        note(span.eoi, r.t);
        break;
      default:
        break;
    }
  }

  SpanBreakdown b;
  b.journeys = static_cast<std::int64_t>(spans.size());
  for (const JourneySpan& s : spans) {
    if (s.complete()) {
      ++b.complete;
    } else {
      ++b.partial;
    }
    if (s.kick >= 0 && s.backend >= s.kick) {
      b.kick_to_backend.record(s.backend - s.kick);
    }
    if (s.backend >= 0 && s.msi >= s.backend) {
      b.backend_to_msi.record(s.msi - s.backend);
    }
    if (s.msi >= 0 && s.dispatch >= s.msi) {
      b.msi_to_dispatch.record(s.dispatch - s.msi);
    }
    if (s.dispatch >= 0 && s.eoi >= s.dispatch) {
      b.dispatch_to_eoi.record(s.eoi - s.dispatch);
    }
    const SimTime start = s.start();
    if (start >= 0 && s.eoi >= start) {
      b.end_to_end.record(s.eoi - start);
    }
  }
  if (spans_out != nullptr) *spans_out = std::move(spans);
  return b;
}

}  // namespace es2
