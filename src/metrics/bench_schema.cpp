#include "metrics/bench_schema.h"

#include <algorithm>
#include <cmath>

#include "base/file.h"
#include "base/strings.h"

namespace es2 {

namespace {
constexpr const char* kBenchSchema = "es2-bench-v2";
}

void BenchReport::upsert(const std::string& name, BenchMetric m) {
  for (auto& [k, existing] : metrics_) {
    if (k == name) {
      existing = m;
      return;
    }
  }
  metrics_.emplace_back(name, m);
}

const BenchMetric* BenchReport::find(const std::string& name) const {
  for (const auto& [k, m] : metrics_) {
    if (k == name) return &m;
  }
  return nullptr;
}

Json BenchReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", Json::string(kBenchSchema));
  doc.set("bench", Json::string(bench_));
  doc.set("fast", Json::boolean(fast_));
  doc.set("seed", Json::number(static_cast<double>(seed_)));
  Json metrics = Json::object();
  for (const auto& [name, m] : metrics_) {
    Json entry = Json::object();
    entry.set("value", Json::number(m.value));
    entry.set("gate", Json::boolean(m.gate));
    metrics.set(name, std::move(entry));
  }
  doc.set("metrics", std::move(metrics));
  return doc;
}

bool BenchReport::from_json(const Json& doc, BenchReport* out,
                            std::string* error) {
  *out = BenchReport();
  if (doc.string_or("schema", "") != kBenchSchema) {
    if (error) *error = "bench: unexpected schema (want es2-bench-v2)";
    return false;
  }
  out->bench_ = doc.string_or("bench", "");
  if (out->bench_.empty()) {
    if (error) *error = "bench: missing bench name";
    return false;
  }
  out->fast_ = doc.bool_or("fast", false);
  if (!doc.integer_or<std::uint64_t>("seed", 1, &out->seed_)) {
    if (error) *error = "bench: seed is not an unsigned 64-bit integer";
    return false;
  }
  const Json* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_object()) {
    if (error) *error = "bench: missing metrics object";
    return false;
  }
  for (const auto& [name, entry] : metrics->members()) {
    // A malformed row must not read as a gated 0 that a zeroed run matches.
    const Json* value = entry.find("value");
    const Json* gate = entry.find("gate");
    if (!value || !value->is_number() || !gate || !gate->is_bool()) {
      if (error) {
        *error = "bench: metric " + name +
                 " is not {\"value\": <number>, \"gate\": <bool>}";
      }
      return false;
    }
    out->metrics_.emplace_back(name,
                               BenchMetric{value->as_number(), gate->as_bool()});
  }
  return true;
}

bool BenchReport::write_file(const std::string& path) const {
  return es2::write_file(path, to_json().dump(2));
}

bool BenchReport::read_file(const std::string& path, BenchReport* out,
                            std::string* error) {
  std::string text;
  if (!es2::read_file(path, &text)) {
    if (error) *error = "bench: cannot read " + path;
    return false;
  }
  Json doc;
  if (!Json::parse(text, &doc, error)) return false;
  return from_json(doc, out, error);
}

bool BenchDiff::ok() const {
  if (!comparable) return false;
  if (!missing.empty()) return false;
  for (const MetricDelta& d : deltas) {
    if (d.fail) return false;
  }
  return true;
}

std::vector<std::string> BenchDiff::failures() const {
  std::vector<std::string> out;
  if (!comparable) out.push_back(bench + ": " + incomparable_why);
  for (const MetricDelta& d : deltas) {
    if (d.fail) {
      out.push_back(bench + "/" + d.metric + ": " + json_number(d.current) +
                    " != baseline " + json_number(d.baseline) +
                    format(" (%+.2f%%)", d.rel * 100.0));
    }
  }
  for (const std::string& m : missing) {
    out.push_back(bench + "/" + m + ": gated metric missing from run");
  }
  return out;
}

BenchDiff diff_bench(const BenchReport& baseline, const BenchReport& current) {
  BenchDiff diff;
  diff.bench = baseline.bench();
  if (baseline.bench() != current.bench()) {
    diff.comparable = false;
    diff.incomparable_why = "bench name mismatch (" + baseline.bench() +
                            " vs " + current.bench() + ")";
    return diff;
  }
  if (baseline.fast() != current.fast() || baseline.seed() != current.seed()) {
    diff.comparable = false;
    diff.incomparable_why =
        format("run stamp mismatch: baseline fast=%d seed=%llu, run fast=%d "
               "seed=%llu",
               baseline.fast() ? 1 : 0,
               static_cast<unsigned long long>(baseline.seed()),
               current.fast() ? 1 : 0,
               static_cast<unsigned long long>(current.seed()));
    return diff;
  }
  for (const auto& [name, base] : baseline.metrics()) {
    const BenchMetric* cur = current.find(name);
    if (!cur) {
      if (base.gate) diff.missing.push_back(name);
      continue;
    }
    MetricDelta d;
    d.metric = name;
    d.baseline = base.value;
    d.current = cur->value;
    d.gate = base.gate;
    if (base.value != 0.0) {
      d.rel = cur->value / base.value - 1.0;
    } else {
      d.rel = cur->value == 0.0 ? 0.0 : INFINITY;
    }
    d.fail = d.gate && cur->value != base.value;
    diff.deltas.push_back(std::move(d));
  }
  for (const auto& [name, m] : current.metrics()) {
    (void)m;
    if (!baseline.find(name)) diff.extra.push_back(name);
  }
  return diff;
}

std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty() || width == 0) return "";
  // Downsample by averaging evenly-split chunks so long series still fit.
  std::vector<double> cells;
  const std::size_t n = values.size();
  const std::size_t w = std::min(width, n);
  cells.reserve(w);
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t lo = c * n / w;
    const std::size_t hi = std::max(lo + 1, (c + 1) * n / w);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += values[i];
    cells.push_back(sum / static_cast<double>(hi - lo));
  }
  const auto [mn_it, mx_it] = std::minmax_element(cells.begin(), cells.end());
  const double mn = *mn_it, mx = *mx_it;
  std::string out;
  for (double v : cells) {
    int level = 3;  // flat series renders as a middle row
    if (mx > mn) {
      level = static_cast<int>((v - mn) / (mx - mn) * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kBlocks[level];
  }
  return out;
}

namespace {

std::string human(double v) {
  if (v == 0.0) return "0";
  const double a = std::fabs(v);
  if (a >= 1e6 || a < 1e-3) return format("%.3g", v);
  if (v == std::floor(v) && a < 1e15) return format("%.0f", v);
  return format("%.3f", v);
}

}  // namespace

std::string render_markdown(const std::vector<BenchDiff>& diffs,
                            const std::vector<const BenchReport*>& baselines,
                            const std::vector<const BenchReport*>& currents) {
  std::string out = "# Bench regression report\n\n";
  std::size_t failing = 0;
  for (const BenchDiff& d : diffs) {
    if (!d.ok()) ++failing;
  }
  out += format("%zu bench(es), %zu failing.\n\n", diffs.size(), failing);

  out += "| bench | status | gated | worst gated delta |\n";
  out += "|---|---|---:|---|\n";
  for (const BenchDiff& d : diffs) {
    std::size_t gated = 0;
    const MetricDelta* worst = nullptr;
    for (const MetricDelta& m : d.deltas) {
      if (!m.gate) continue;
      ++gated;
      if (!worst || std::fabs(m.rel) > std::fabs(worst->rel)) worst = &m;
    }
    out += "| " + d.bench + " | " + (d.ok() ? "ok" : "**FAIL**") + " | " +
           format("%zu", gated) + " | " +
           (worst ? worst->metric + " " + format("%+.2f%%", worst->rel * 100.0)
                  : "—") +
           " |\n";
  }
  out += "\n";

  for (std::size_t bi = 0; bi < diffs.size(); ++bi) {
    const BenchDiff& d = diffs[bi];
    const BenchReport* base = bi < baselines.size() ? baselines[bi] : nullptr;
    const BenchReport* cur = bi < currents.size() ? currents[bi] : nullptr;
    out += "## " + d.bench + (d.ok() ? "" : " — FAIL") + "\n\n";
    if (!d.comparable) {
      out += d.incomparable_why + "\n\n";
      continue;
    }
    out += "| metric | baseline | current | delta | trend |\n";
    out += "|---|---:|---:|---:|---|\n";
    for (const MetricDelta& m : d.deltas) {
      const std::string trend = sparkline({m.baseline, m.current}, 2);
      std::string delta = std::isinf(m.rel)
                              ? "new-nonzero"
                              : format("%+.2f%%", m.rel * 100.0);
      if (m.fail) delta = "**" + delta + "**";
      out += "| " + m.metric + (m.gate ? "" : " *(info)*") + " | " +
             human(m.baseline) + " | " + human(m.current) + " | " + delta +
             " | " + trend + " |\n";
    }
    for (const std::string& name : d.missing) {
      out += "| " + name + " | " +
             (base && base->find(name) ? human(base->find(name)->value) : "?") +
             " | *missing* | **missing** | |\n";
    }
    for (const std::string& name : d.extra) {
      out += "| " + name + " *(new)* | — | " +
             (cur && cur->find(name) ? human(cur->find(name)->value) : "?") +
             " | — | |\n";
    }
    out += "\n";
  }

  std::vector<std::string> all_failures;
  for (const BenchDiff& d : diffs) {
    auto f = d.failures();
    all_failures.insert(all_failures.end(), f.begin(), f.end());
  }
  if (!all_failures.empty()) {
    out += "## Failures\n\n";
    for (const std::string& f : all_failures) out += "- " + f + "\n";
  }
  return out;
}

}  // namespace es2
