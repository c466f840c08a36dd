// Profiler exporters: collapsed stacks (flamegraph-ready), es2-prof-v2
// JSON, and Perfetto slices that ride along the trace exporter.
//
// Determinism contract: every exported number is a span count or a
// sim-time total, so same-seed runs export byte-identical text.
#pragma once

#include <string>
#include <vector>

#include "base/json.h"
#include "profile/profiler.h"
#include "trace/export.h"

namespace es2 {

inline constexpr const char* kProfSchema = "es2-prof-v2";

/// Collapsed-stack text, one "sim;<comp>;<comp>:k<key> <sim-ns>" line per
/// span aggregate, sorted — pipe into flamegraph.pl / speedscope.
/// Zero-weight lines are skipped.
std::string prof_to_collapsed(const ProfileData& data);

/// es2-prof-v2 JSON: the span aggregates and the slice/drop counters.
Json prof_to_json(const ProfileData& data);
std::string prof_to_json_text(const ProfileData& data);

/// The profiler's slice ring as Perfetto slices for
/// `to_perfetto_json(records, spans, slices)`.
std::vector<PerfettoSlice> prof_perfetto_slices(const ProfileData& data);

}  // namespace es2
