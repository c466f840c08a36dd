// Metrics readout: a sorted snapshot of the registry and a one-line digest
// of what moved since a start read of it.
//
// `snapshot()` is a self-contained copy of every instrument's current value
// in one canonical order (sorted metric keys), so same-seed runs harvest
// identical sample lists; run results carry it as `MetricsData::samples`.
#pragma once

#include <string>
#include <vector>

#include "base/units.h"
#include "metrics/metrics.h"

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

/// Every instrument's current value, in registration order: the start
/// read `top_metric_deltas` subtracts.
std::vector<double> read_values(const MetricsRegistry& registry);

/// One human-readable line per top-|delta| metric: current value minus
/// `start_values` (one per instrument, registration order, as
/// `read_values` returns them), e.g.
/// `vm.exits{cause=msr_access} +1204 (841.2/s)` with the rate over `span`.
/// Instruments registered after the start read count from 0, and with no
/// start read at all the line names the largest current values. Nothing
/// moved -> "". Used by watchdog and InvariantAuditor failure reports.
std::string top_metric_deltas(const MetricsRegistry& registry,
                              const std::vector<double>& start_values,
                              SimDuration span, std::size_t n);

}  // namespace es2
