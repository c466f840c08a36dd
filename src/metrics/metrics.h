// Unified metrics registry: named, labelled instruments for every layer.
//
// The paper's evaluation is built from aggregate telemetry — VM exits by
// cause, notifications suppressed, interrupts posted, TIG — and before this
// registry each subsystem hand-rolled `Counter`/`RateMeter` members that
// only surfaced as final scalars in experiment rows. The registry gives
// those signals one namespace (`vm.exits{cause=ept_violation}`,
// `vhost.worker.turns`, `cfs.preemptions{core=0}`, `tcp.retransmits`),
// and one snapshot path (`snapshot()` in metrics/export.h).
//
// Two rules keep it out of the hot path:
//
//  * **Probes over counters.** Layers already count everything the paper
//    needs; a registry instrument is usually a `Probe` — a read-only
//    closure over an existing accessor — so registration adds zero work
//    per model event. New plain counters are added to a layer only where
//    no signal existed.
//  * **Passivity.** Reading any instrument draws no RNG values, writes no
//    model state, and schedules nothing. A run reads the registry twice,
//    at `Testbed::start()` and at harvest, so it costs nothing per event.
//
// Registration happens at testbed construction (allocation is fine there).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/units.h"
#include "stats/histogram.h"
#include "stats/meters.h"

namespace es2 {

enum class MetricKind : std::uint8_t {
  kCounter,       // monotone event count
  kGauge,         // instantaneous level, set by the owner
  kTimeWeighted,  // piecewise-constant level integrated over sim time
  kHistogram,     // log-bucketed distribution
  kProbe,         // read-only closure over an existing layer accessor
};

/// Label set, canonicalised to key-sorted order on registration.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Instantaneous level instrument (queue depth, window size, mode flag).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Canonical metric key: `name` when unlabelled, else `name{k=v,...}` with
/// keys sorted. This is the registry's identity and every exporter's sort
/// order, so same-seed exports are byte-identical by construction.
std::string metric_key(const std::string& name, const MetricLabels& labels);

class MetricsRegistry {
 public:
  using Probe = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Each getter registers on first use and returns the existing instrument
  /// on re-registration with the same name+labels. Registering the same key
  /// with a different kind is a programming error (ES2_CHECK).
  Counter& counter(const std::string& name, MetricLabels labels = {});
  Gauge& gauge(const std::string& name, MetricLabels labels = {});
  TimeWeighted& time_weighted(const std::string& name, MetricLabels labels = {});
  Histogram& histogram(const std::string& name, MetricLabels labels = {});

  /// Registers a read-only closure evaluated at sample/snapshot time.
  /// Re-registering an existing probe key replaces the closure (layers may
  /// be torn down and rebuilt between experiment phases).
  void probe(const std::string& name, MetricLabels labels, Probe fn);
  void probe(const std::string& name, Probe fn) {
    probe(name, MetricLabels{}, std::move(fn));
  }

  std::size_t size() const { return instruments_.size(); }

  struct Instrument {
    std::string name;
    MetricLabels labels;
    std::string key;  // canonical, see metric_key()
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    TimeWeighted time_weighted;
    std::unique_ptr<Histogram> histogram;  // only for kHistogram
    Probe probe;
  };

  /// Instruments in registration order; indices are stable for the lifetime
  /// of the registry (deque storage, nothing is ever removed).
  const Instrument& instrument(std::size_t i) const { return *instruments_[i]; }

  /// Scalar value of instrument `i` right now: counter/gauge read their
  /// value, time-weighted reads the current level, histograms report their
  /// sample count (distribution detail lives in the exporters), probes are
  /// invoked. Read-only — never mutates model or registry state.
  double value(std::size_t i) const;

  /// Looks up by canonical key; nullptr when absent.
  const Instrument* find(const std::string& key) const;

  /// Indices of all instruments sorted by canonical key — the export order.
  std::vector<std::size_t> sorted_indices() const;

 private:
  Instrument& intern(const std::string& name, MetricLabels labels,
                     MetricKind kind);

  // unique_ptr elements keep Instrument addresses stable across growth and
  // keep the (moderately large) struct off the vector's reallocation path.
  std::vector<std::unique_ptr<Instrument>> instruments_;
  std::map<std::string, std::size_t> index_;  // canonical key -> slot
};

}  // namespace es2
