// The shared `BENCH_<name>.json` schema ("es2-bench-v2") and the regression
// gate that diffs a run against committed baselines.
//
// Every bench binary reduces its run to named scalar metrics, each with a
// gate flag, and the gate has one rule:
//
//  * `gate: true`  — sim-derived quantities (throughput in simulated Mbps,
//    exits per packet, retransmit counts). The simulator is deterministic,
//    so each has exactly one value per seed: the gate fails when the
//    current value differs from the baseline's in any bit.
//  * `gate: false` — host-time (wall-clock) quantities (events/sec,
//    ns/event). Reported in the markdown diff, never failed on.
//
// A v1 document is rejected: it carried a per-metric tolerance that this
// reader would otherwise silently drop. So is a metric entry that is not
// `{"value": <number>, "gate": <bool>}`, naming the row.
//
// Baselines live in `bench/baseline/BENCH_<name>.json`, generated with
// `--fast --seed=1`; `bench_report --check` refuses to compare runs whose
// fast/seed stamps differ from the baseline's (an incomparable pair is a
// gate failure, not a silent pass).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/json.h"

namespace es2 {

struct BenchMetric {
  double value = 0.0;
  bool gate = true;
};

class BenchReport {
 public:
  BenchReport() = default;
  BenchReport(std::string bench, bool fast, std::uint64_t seed)
      : bench_(std::move(bench)), fast_(fast), seed_(seed) {}

  const std::string& bench() const { return bench_; }
  bool fast() const { return fast_; }
  std::uint64_t seed() const { return seed_; }

  /// Adds (or overwrites) a gated metric: a sim-derived value the run
  /// must reproduce exactly.
  void add(const std::string& name, double value) {
    upsert(name, {value, true});
  }
  /// Adds a host-time (wall-clock) metric — reported, never gated.
  void add_info(const std::string& name, double value) {
    upsert(name, {value, false});
  }

  const std::vector<std::pair<std::string, BenchMetric>>& metrics() const {
    return metrics_;
  }
  const BenchMetric* find(const std::string& name) const;

  Json to_json() const;
  static bool from_json(const Json& doc, BenchReport* out, std::string* error);

  /// Writes `to_json().dump(2)` to `path`. Returns false on I/O failure.
  bool write_file(const std::string& path) const;
  static bool read_file(const std::string& path, BenchReport* out,
                        std::string* error);

 private:
  void upsert(const std::string& name, BenchMetric m);

  std::string bench_;
  bool fast_ = false;
  std::uint64_t seed_ = 1;
  std::vector<std::pair<std::string, BenchMetric>> metrics_;
};

/// One metric's baseline-vs-current comparison.
struct MetricDelta {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double rel = 0.0;  // current/baseline - 1, for display only
  bool gate = false;
  bool fail = false;  // gate && current != baseline
};

/// Whole-bench comparison result.
struct BenchDiff {
  std::string bench;
  bool comparable = true;         // fast/seed stamps match
  std::string incomparable_why;   // set when !comparable
  std::vector<MetricDelta> deltas;
  std::vector<std::string> missing;  // gated in baseline, absent from run
  std::vector<std::string> extra;    // in run, absent from baseline

  bool ok() const;
  /// Names of failing gated metrics (plus missing ones), for error output.
  std::vector<std::string> failures() const;
};

BenchDiff diff_bench(const BenchReport& baseline, const BenchReport& current);

/// Unicode sparkline (▁▂▃▄▅▆▇█) of `values`, downsampled to `width` cells.
/// Flat or empty series render as a row of middle blocks / "".
std::string sparkline(const std::vector<double>& values, std::size_t width = 24);

/// Markdown regression report over a set of bench diffs: status table,
/// per-metric deltas with a two-point baseline->current sparkline, and a
/// failure summary.
std::string render_markdown(const std::vector<BenchDiff>& diffs,
                            const std::vector<const BenchReport*>& baselines,
                            const std::vector<const BenchReport*>& currents);

}  // namespace es2
