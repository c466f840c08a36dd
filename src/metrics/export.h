// Metrics readout: a sorted snapshot of the registry and a one-line digest
// of what moved over the sampler's window.
//
// `snapshot()` is a self-contained copy of every instrument's current value
// in one canonical order (sorted metric keys), so same-seed runs harvest
// identical sample lists; run results carry it as `MetricsData::samples`.
#pragma once

#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "metrics/sampler.h"

namespace es2 {

/// One instrument's state. For histograms the scalar `value` is the sample
/// count and the two quantiles ride in `hist_p50`/`hist_p99`.
struct MetricSample {
  std::string name;
  MetricLabels labels;  // canonical (key-sorted)
  double value = 0.0;
  double hist_p50 = 0.0;
  double hist_p99 = 0.0;

  bool operator==(const MetricSample&) const = default;
};

/// Reads every instrument, sorted by canonical key.
std::vector<MetricSample> snapshot(const MetricsRegistry& registry);

/// One human-readable line per top-|delta| metric over the sampler's
/// retained window (newest frame minus oldest), e.g.
/// `vm.exits{cause=msr_access} +1204 (841.2/s)`. Falls back to the largest
/// current values when fewer than two frames exist. Empty registry -> "".
/// Used by ScenarioWatchdog / InvariantAuditor failure reports.
std::string top_metric_deltas(const MetricsRegistry& registry,
                              const MetricsSampler& sampler, std::size_t n);

}  // namespace es2
