// bench_report — the bench regression gate.
//
// Reads every `BENCH_<name>.json` under --baseline (committed reference
// runs, generated with `--fast --seed=1`) and --current (this build's
// bench output), diffs them metric by metric — a gated metric passes only
// if it equals its baseline bit for bit — and renders a markdown report
// with a baseline->current sparkline per row.
//
//   bench_report                       render the diff to stdout
//   bench_report --out=report.md      ... and write it to a file
//   bench_report --check              exit non-zero on any gated failure,
//                                     naming each failing metric
//   bench_report --self-test          move a gated row of a copied
//                                     baseline by one ulp and scale an
//                                     info row x30; exit non-zero unless
//                                     the first fails and the second
//                                     passes
//
// A current report missing for a committed baseline is a gate failure
// (a bench silently not running must not pass CI); an extra current
// report is informational. Any other argument exits 2 naming it, so a
// misspelt --check cannot skip the gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
      std::exit(2);
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
    // failures() entries are already "<bench>/<metric>: <cur> != ...".
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
    std::printf("bench gate: all %zu benches match their baselines\n",
                g.diffs.size());
  }
  return args.check && failures > 0 ? 1 : 0;
}

/// Proves the gate is exact and gates only what it should: every untouched
/// baseline copy passes, the first gated row moved by one ulp fails and is
/// named, and the first nonzero info row scaled x30 still passes.
int run_self_test(const ReportArgs& args) {
  std::string ulp_row, info_row;
  for (const std::string& path : list_reports(args.baseline_dir)) {
    BenchReport baseline;
    std::string error;
    if (!BenchReport::read_file(path, &baseline, &error)) {
      std::printf("self-test FAILED: unreadable %s (%s)\n", path.c_str(),
                  error.c_str());
      return 1;
    }
    if (!diff_bench(baseline, baseline).ok()) {
      std::printf("self-test FAILED: identical copy of %s does not pass\n",
                  baseline.bench().c_str());
      return 1;
    }
    for (const auto& [name, m] : baseline.metrics()) {
      const std::string row = baseline.bench() + "/" + name;
      if (m.gate && ulp_row.empty()) {
        BenchReport copy = baseline;
        copy.add(name, std::nextafter(m.value, INFINITY));
        const BenchDiff moved = diff_bench(baseline, copy);
        const std::vector<std::string> failures = moved.failures();
        if (moved.ok() || failures.size() != 1 ||
            failures[0].rfind(row + ":", 0) != 0) {
          std::printf("self-test FAILED: one ulp on %s not caught\n",
                      row.c_str());
          return 1;
        }
        std::printf("REGRESSION %s (injected)\n", failures[0].c_str());
        ulp_row = row;
      } else if (!m.gate && m.value != 0 && info_row.empty()) {
        BenchReport copy = baseline;
        copy.add_info(name, m.value * 30);
        if (!diff_bench(baseline, copy).ok()) {
          std::printf("self-test FAILED: x30 on info row %s failed the gate\n",
                      row.c_str());
          return 1;
        }
        info_row = row;
      }
    }
  }
  if (ulp_row.empty() || info_row.empty()) {
    std::printf("self-test FAILED: need a gated and a nonzero info row "
                "under %s\n",
                args.baseline_dir.c_str());
    return 1;
  }
  std::printf("self-test ok: one ulp on %s tripped the gate; x30 on %s "
              "(info) passed\n",
              ulp_row.c_str(), info_row.c_str());
  return 0;
}

}  // namespace
}  // namespace es2

int main(int argc, char** argv) {
  const es2::ReportArgs args = es2::parse(argc, argv);
  if (args.self_test) return es2::run_self_test(args);
  return es2::run_check(args);
}
