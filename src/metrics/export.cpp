#include "metrics/export.h"

#include <algorithm>
#include <cmath>

#include "base/json.h"
#include "base/strings.h"

namespace es2 {

std::vector<MetricSample> snapshot(const MetricsRegistry& registry) {
  std::vector<MetricSample> out;
  out.reserve(registry.size());
  for (std::size_t i : registry.sorted_indices()) {
    const auto& inst = registry.instrument(i);
    MetricSample s;
    s.name = inst.name;
    s.labels = inst.labels;
    s.value = registry.value(i);
    if (inst.kind == MetricKind::kHistogram && inst.histogram->count() > 0) {
      s.hist_p50 = static_cast<double>(inst.histogram->p50());
      s.hist_p99 = static_cast<double>(inst.histogram->p99());
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<double> read_values(const MetricsRegistry& registry) {
  std::vector<double> values(registry.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = registry.value(i);
  return values;
}

std::string top_metric_deltas(const MetricsRegistry& registry,
                              const std::vector<double>& start_values,
                              SimDuration span, std::size_t n) {
  struct Entry {
    std::size_t slot;
    double delta;
    double per_second;
  };
  std::vector<Entry> entries;
  const double span_s = to_seconds(span);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const double start = i < start_values.size() ? start_values[i] : 0.0;
    const double delta = registry.value(i) - start;
    if (delta == 0.0) continue;
    entries.push_back({i, delta, span_s > 0 ? delta / span_s : 0.0});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return std::fabs(a.delta) > std::fabs(b.delta);
                   });
  if (entries.size() > n) entries.resize(n);
  std::string out;
  for (const Entry& e : entries) {
    if (!out.empty()) out += "; ";
    out += registry.instrument(e.slot).key;
    out += e.delta >= 0 ? " +" : " ";
    out += json_number(e.delta);
    if (e.per_second != 0.0) {
      out += " (" + rate_str(std::fabs(e.per_second)) + ")";
    }
  }
  return out;
}

}  // namespace es2
