// Trace exporter: Perfetto/chrome://tracing JSON.
//
// The JSON targets ui.perfetto.dev / chrome://tracing directly: records
// become instant events on (vm, vcpu) tracks and journeys become async
// begin/end pairs, so a kick->EOI path reads as one horizontal bar. Each
// instant event carries every TraceRecord field (kind, t to the ns, vm,
// vcpu, arg, corr, cpu), so it is the one on-disk form of a trace.
#pragma once

#include <string>
#include <vector>

#include "trace/span.h"
#include "trace/trace.h"

namespace es2 {

/// Chrome trace-event JSON ("traceEvents" array). `spans` adds async
/// journey bars on top of the instant records; pass an empty vector to
/// export records only.
std::string to_perfetto_json(const std::vector<TraceRecord>& records,
                             const std::vector<JourneySpan>& spans = {});

}  // namespace es2
