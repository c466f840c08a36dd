#include "metrics/metrics.h"

#include <algorithm>

#include "base/assert.h"

namespace es2 {

std::string metric_key(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key.push_back('{');
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) key.push_back(',');
    key += sorted[i].first;
    key.push_back('=');
    key += sorted[i].second;
  }
  key.push_back('}');
  return key;
}

MetricsRegistry::Instrument& MetricsRegistry::intern(const std::string& name,
                                                     MetricLabels labels,
                                                     MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  std::string key = metric_key(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Instrument& existing = *instruments_[it->second];
    ES2_CHECK_MSG(existing.kind == kind,
                  "metric re-registered with a different kind");
    return existing;
  }
  auto inst = std::make_unique<Instrument>();
  inst->name = name;
  inst->labels = std::move(labels);
  inst->key = key;
  inst->kind = kind;
  if (kind == MetricKind::kHistogram) {
    inst->histogram = std::make_unique<Histogram>();
  }
  index_.emplace(std::move(key), instruments_.size());
  instruments_.push_back(std::move(inst));
  return *instruments_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      MetricLabels labels) {
  return *intern(name, std::move(labels), MetricKind::kHistogram).histogram;
}

void MetricsRegistry::probe(const std::string& name, MetricLabels labels,
                            Probe fn) {
  intern(name, std::move(labels), MetricKind::kProbe).probe = std::move(fn);
}

double MetricsRegistry::value(std::size_t i) const {
  const Instrument& inst = *instruments_[i];
  switch (inst.kind) {
    case MetricKind::kHistogram:
      return static_cast<double>(inst.histogram->count());
    case MetricKind::kProbe:
      return inst.probe ? inst.probe() : 0.0;
  }
  return 0.0;
}

const MetricsRegistry::Instrument* MetricsRegistry::find(
    const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : instruments_[it->second].get();
}

std::vector<std::size_t> MetricsRegistry::sorted_indices() const {
  std::vector<std::size_t> out;
  out.reserve(index_.size());
  for (const auto& [key, slot] : index_) out.push_back(slot);
  return out;
}

}  // namespace es2
