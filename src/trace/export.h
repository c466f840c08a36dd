// Trace exporters: Perfetto/chrome://tracing JSON and a compact binary
// format with a reader.
//
// The JSON form targets ui.perfetto.dev / chrome://tracing directly:
// records become instant events on (vm, vcpu) tracks and journeys become
// async begin/end pairs, so a kick->EOI path reads as one horizontal bar.
// The binary form is fixed-width little-endian — 24 bytes per record after
// a 16-byte header — and is what the determinism tests compare: two runs
// are byte-identical iff their binary traces are.
#pragma once

#include <cstdint>
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

/// Compact binary form: "ES2T" magic, u32 version, u64 record count, then
/// 24 bytes per record, everything little-endian regardless of host.
std::string to_binary(const std::vector<TraceRecord>& records);

/// Parses `data` produced by to_binary. Returns false (leaving `out`
/// empty) on bad magic, version or truncation.
bool read_binary(const std::string& data, std::vector<TraceRecord>* out);

}  // namespace es2
