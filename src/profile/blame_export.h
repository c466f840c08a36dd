// es2-blame-v1: the versioned export of a blame breakdown, the folded
// flame-graph stacks of its partition, and the renderers the
// `tools/latency_blame` CLI and the benches share.
//
// The JSON is fully deterministic (insertion-ordered members, integer
// nanoseconds, shortest-round-trip doubles), so same-seed runs export
// byte-identical files — the same discipline as es2-bench-v2 and
// es2-hash-v1. `BlameSummary` is the schema-stable subset two runs are
// diffed over; `diff_blame` names the component whose share of the
// journey total regressed the most.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/json.h"
#include "profile/blame.h"

namespace es2 {

inline constexpr const char* kBlameSchema = "es2-blame-v1";

/// Full export: schema stamp, totals, per-component rows (ns, fraction,
/// p50/p99), per-(vm,queue) groups and the worst-journey ledger.
Json blame_to_json(const BlameBreakdown& b);
std::string blame_to_json_text(const BlameBreakdown& b);

/// Collapsed-stack text (flamegraph.pl / speedscope input): one sorted
/// "sim;<component>;vm<v>:q<queue> <ns>" line per non-zero cell of
/// `b.groups`, so the weights sum to `b.total_ns` exactly. A breakdown
/// that attributed no journeys renders as the empty string.
std::string blame_to_collapsed(const BlameBreakdown& b);

/// The comparable subset of one export (enough to render the budget table
/// and diff two runs).
struct BlameSummary {
  std::int64_t journeys = 0;
  std::int64_t complete = 0;
  std::int64_t total_ns = 0;
  std::int64_t end_to_end_p50 = 0;
  std::int64_t end_to_end_p99 = 0;
  struct Component {
    std::string name;
    bool wait = false;
    std::int64_t ns = 0;
    double fraction = 0;
    std::int64_t p50 = 0;
    std::int64_t p99 = 0;
  };
  std::vector<Component> components;  // path order
  std::vector<std::string> worst;     // critical-path lines, worst first
};

BlameSummary blame_summary(const BlameBreakdown& b);
/// Parses an es2-blame-v1 file back into a summary. False (with `error`
/// set) on malformed input or a schema mismatch.
bool blame_summary_from_json(const std::string& text, BlameSummary* out,
                             std::string* error);

/// Markdown latency-budget table: one row per component with ns share of
/// the journey total, p50/p99 and a wait/service tag, followed by the
/// worst-journey ledger. The shares column is footed with its sum so a
/// broken partition is visible in the artifact itself.
std::string render_blame_markdown(const BlameSummary& s);

/// Per-component share drift between two runs.
struct BlameDiff {
  struct Row {
    std::string name;
    double fraction_a = 0;
    double fraction_b = 0;
    std::int64_t ns_a = 0;
    std::int64_t ns_b = 0;
  };
  std::vector<Row> rows;
  std::int64_t p99_a = 0;
  std::int64_t p99_b = 0;
  /// Component with the largest share increase in b vs a ("" when no
  /// component grew). The answer to "what regressed?".
  std::string regressed;
  double regressed_delta = 0;
};

BlameDiff diff_blame(const BlameSummary& a, const BlameSummary& b);
std::string render_blame_diff_markdown(const BlameDiff& d);

}  // namespace es2
