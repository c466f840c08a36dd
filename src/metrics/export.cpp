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

std::string top_metric_deltas(const MetricsRegistry& registry,
                              const MetricsSampler& sampler, std::size_t n) {
  struct Entry {
    std::size_t slot;
    double delta;
    double per_second;
  };
  std::vector<Entry> entries;
  const std::size_t frames = sampler.frames();
  if (frames >= 2) {
    const SimTime t0 = sampler.frame_time(0);
    const SimTime t1 = sampler.frame_time(frames - 1);
    const double span_s = to_seconds(t1 - t0);
    for (std::size_t i = 0; i < sampler.instruments(); ++i) {
      const double delta =
          sampler.frame_value(frames - 1, i) - sampler.frame_value(0, i);
      if (delta == 0.0) continue;
      entries.push_back({i, delta, span_s > 0 ? delta / span_s : 0.0});
    }
  } else {
    for (std::size_t i = 0; i < registry.size(); ++i) {
      const double v = registry.value(i);
      if (v == 0.0) continue;
      entries.push_back({i, v, 0.0});
    }
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
