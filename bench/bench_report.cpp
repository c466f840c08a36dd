// bench_report — the bench regression gate.
//
// Reads every `BENCH_<name>.json` under --baseline (committed reference
// runs, generated with `--fast --seed=1`) and --current (this build's
// bench output), diffs them metric by metric with the per-metric relative
// tolerances from the schema, and renders a markdown report with
// sparklines for the recorded series.
//
//   bench_report                       render the diff to stdout
//   bench_report --out=report.md      ... and write it to a file
//   bench_report --check              exit non-zero on any gated failure,
//                                     naming each failing metric
//   bench_report --self-test          inject a synthetic 10% regression
//                                     into a copied baseline and verify
//                                     the gate catches it (exit non-zero
//                                     if the gate stays silent)
//
// A current report missing for a committed baseline is a gate failure
// (a bench silently not running must not pass CI); an extra current
// report is informational.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "base/file.h"
#include "metrics/bench_schema.h"

namespace es2 {
namespace {

struct ReportArgs {
  std::string baseline_dir = "bench/baseline";
  std::string current_dir = "bench/out";
  std::string out_path;
  bool check = false;
  bool self_test = false;
};

ReportArgs parse(int argc, char** argv) {
  ReportArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      args.baseline_dir = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--current=", 10) == 0) {
      args.current_dir = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      args.out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      args.check = true;
    } else if (std::strcmp(argv[i], "--self-test") == 0) {
      args.self_test = true;
    } else {
      std::fprintf(stderr, "bench_report: unknown argument %s\n", argv[i]);
    }
  }
  return args;
}

/// Sorted BENCH_*.json paths in `dir` (empty when the dir is missing).
std::vector<std::string> list_reports(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Diffs every baseline report against its current counterpart. A missing
/// or unreadable current report becomes an incomparable (failing) diff.
struct GateResult {
  std::vector<BenchDiff> diffs;
  std::vector<BenchReport> baselines;
  std::vector<BenchReport> currents;  // parallel; default-constructed when missing
};

GateResult run_gate(const ReportArgs& args) {
  GateResult g;
  for (const std::string& path : list_reports(args.baseline_dir)) {
    BenchReport baseline;
    std::string error;
    if (!BenchReport::read_file(path, &baseline, &error)) {
      BenchDiff d;
      d.bench = std::filesystem::path(path).filename().string();
      d.comparable = false;
      d.incomparable_why = "unreadable baseline: " + error;
      g.diffs.push_back(std::move(d));
      g.baselines.emplace_back();
      g.currents.emplace_back();
      continue;
    }
    const std::string current_path =
        args.current_dir + "/BENCH_" + baseline.bench() + ".json";
    BenchReport current;
    if (!BenchReport::read_file(current_path, &current, &error)) {
      BenchDiff d;
      d.bench = baseline.bench();
      d.comparable = false;
      d.incomparable_why = "no current report (" + error + ")";
      g.diffs.push_back(std::move(d));
      g.baselines.push_back(std::move(baseline));
      g.currents.emplace_back();
      continue;
    }
    g.diffs.push_back(diff_bench(baseline, current));
    g.baselines.push_back(std::move(baseline));
    g.currents.push_back(std::move(current));
  }
  return g;
}

/// The failing report's most-moved metrics (gated or not), largest
/// |relative delta| first — the same "what was moving" pointer the
/// invariant auditor prints, so a REGRESSION line comes with context
/// instead of a lone metric name.
std::string top_deltas_line(const BenchDiff& d, std::size_t n) {
  std::vector<const MetricDelta*> moved;
  for (const MetricDelta& m : d.deltas) {
    if (m.rel != 0.0) moved.push_back(&m);
  }
  std::sort(moved.begin(), moved.end(),
            [](const MetricDelta* a, const MetricDelta* b) {
              if (std::abs(a->rel) != std::abs(b->rel)) {
                return std::abs(a->rel) > std::abs(b->rel);
              }
              return a->metric < b->metric;
            });
  if (moved.size() > n) moved.resize(n);
  std::string line;
  for (const MetricDelta* m : moved) {
    if (!line.empty()) line += ", ";
    line += m->metric;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %+.1f%%", m->rel * 100.0);
    line += buf;
  }
  return line;
}

int report_failures(const std::vector<BenchDiff>& diffs) {
  int failures = 0;
  for (const BenchDiff& d : diffs) {
    if (d.ok()) continue;
    // failures() entries are already "<bench>/<metric>: <delta vs tol>".
    for (const std::string& failure : d.failures()) {
      std::printf("REGRESSION %s\n", failure.c_str());
      ++failures;
    }
    const std::string moved = top_deltas_line(d, 5);
    if (!moved.empty()) {
      std::printf("  %s top deltas: %s\n", d.bench.c_str(), moved.c_str());
    }
  }
  return failures;
}

int run_check(const ReportArgs& args) {
  const GateResult g = run_gate(args);
  if (g.diffs.empty()) {
    std::printf("REGRESSION gate: no baselines found under %s\n",
                args.baseline_dir.c_str());
    return 1;
  }
  std::vector<const BenchReport*> bp, cp;
  for (const BenchReport& b : g.baselines) bp.push_back(&b);
  for (const BenchReport& c : g.currents) cp.push_back(&c);
  const std::string markdown = render_markdown(g.diffs, bp, cp);
  if (!args.out_path.empty()) {
    if (write_file(args.out_path, markdown)) {
      std::printf("[markdown report written to %s]\n", args.out_path.c_str());
    } else {
      std::printf("[could not write %s]\n", args.out_path.c_str());
    }
  } else {
    std::printf("%s", markdown.c_str());
  }
  const int failures = report_failures(g.diffs);
  if (args.check) {
    if (failures > 0) {
      std::printf("bench gate: %d failing metric(s)\n", failures);
      return 1;
    }
    std::printf("bench gate: all %zu benches within tolerance\n",
                g.diffs.size());
  }
  return args.check && failures > 0 ? 1 : 0;
}

/// Proves the gate trips: copies the first baseline with a suitable gated
/// metric, inflates that metric by 10% (past its tolerance), and checks
/// the diff fails *and names the metric*. The clean copy must still pass.
int run_self_test(const ReportArgs& args) {
  for (const std::string& path : list_reports(args.baseline_dir)) {
    BenchReport baseline;
    std::string error;
    if (!BenchReport::read_file(path, &baseline, &error)) {
      std::printf("self-test: skipping unreadable %s (%s)\n", path.c_str(),
                  error.c_str());
      continue;
    }
    // A 10% regression must exceed the metric's tolerance to trip.
    const std::string* victim = nullptr;
    double victim_value = 0, victim_tol = 0;
    for (const auto& [name, m] : baseline.metrics()) {
      if (m.gate && m.value != 0 && m.tol < 0.10) {
        victim = &name;
        victim_value = m.value;
        victim_tol = m.tol;
        break;
      }
    }
    if (victim == nullptr) continue;

    // The untouched copy must pass...
    BenchReport copy = baseline;
    const BenchDiff clean = diff_bench(baseline, copy);
    if (!clean.ok()) {
      std::printf("self-test FAILED: identical copy of %s does not pass\n",
                  baseline.bench().c_str());
      return 1;
    }
    // ... and the 10%-regressed copy must fail, naming the metric.
    copy.add(*victim, victim_value * 1.10, victim_tol);
    const BenchDiff regressed = diff_bench(baseline, copy);
    bool named = false;
    for (const std::string& failure : regressed.failures()) {
      if (failure.find(*victim) != std::string::npos) named = true;
    }
    if (regressed.ok() || !named) {
      std::printf(
          "self-test FAILED: +10%% on %s.%s (tol %.0f%%) not caught\n",
          baseline.bench().c_str(), victim->c_str(), victim_tol * 100);
      return 1;
    }
    std::printf("REGRESSION %s.%s (injected)\n", baseline.bench().c_str(),
                victim->c_str());
    std::printf("self-test ok: +10%% on %s.%s tripped the gate\n",
                baseline.bench().c_str(), victim->c_str());
    return 0;
  }
  std::printf("self-test FAILED: no baseline with a gated metric under %s\n",
              args.baseline_dir.c_str());
  return 1;
}

}  // namespace
}  // namespace es2

int main(int argc, char** argv) {
  const es2::ReportArgs args = es2::parse(argc, argv);
  if (args.self_test) return es2::run_self_test(args);
  return es2::run_check(args);
}
