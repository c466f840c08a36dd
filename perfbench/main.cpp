// Host-cost benchmark for the ES2 simulator.
//
// Runs one named workload in this process on one thread, as a closed loop
// over its experiment cells: each cell is one call to a public runner in
// harness/experiments.h, and the next cell starts when the previous one
// returns. Passes over all cells repeat until --seconds have elapsed. Host
// time is the runner calls' CPU time, each pass's scaled to reference speed
// (reference.h), and the median over passes is reported.
//
//   perfbench --workload stream|request|faulted [--seed N] [--seconds S]
//             [--trace 0|1] [--out DIR]
//   perfbench --self-test [--seed N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced passes, records spans around every phase and calibrates each
// layer, and prints the per-layer metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "layers.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using es2::Testbed;

/// Workload seed the self-test and `run.py --workload all` check besides
/// the one given; never used while tuning the benchmark.
constexpr std::uint64_t kHeldOutSeed = 20171;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string out = ".bench_build/out";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--self-test") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--out") {
      a->out = value;
    } else if (flag == "--self-test") {
      a->self_test = true;
    } else {
      return false;
    }
  }
  return a->self_test || !a->workload.empty();
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory, written once when the benchmark ends
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  /// Records [start_ns, end_ns] under `parent` (-1: a root); returns its id.
  int add(std::string name, std::string cell, double start_ns, double end_ns,
          int parent) {
    spans_.push_back({std::move(name), std::move(cell), start_ns, end_ns,
                      parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, double end_ns) {
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" events, microseconds from the first span).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"cell\":\"%s\"}}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                   i, s.parent, s.cell.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::string cell;
    double start_ns;
    double end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Passes and their summary
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Pass {
  bool traced = false;
  std::vector<CellOutcome> cells;
  /// Per cell: CPU ns from the runner call to the end of the benchmark's
  /// own work on its result (digest; spans and layer tally when traced).
  std::vector<double> cell_ns;
  /// Per cell: the reference's ns per operation, measured just before it.
  std::vector<double> ref_ns;
  LayerTally tally;

  /// Factor that scales this pass's host times to reference speed.
  double scale() const { return kReferenceNominalNs / median(ref_ns); }
};

/// Runs every cell once. A traced pass records a span per cell with the
/// runner call, the digest and the harvest into the layer tally inside it.
Pass run_pass(const std::vector<Cell>& cells, SpanLog* spans, int pass_no) {
  Pass pass;
  pass.traced = spans != nullptr;
  const double pass_start = now_ns();
  const int root =
      spans ? spans->add("pass", std::to_string(pass_no), pass_start,
                         pass_start, -1)
            : -1;
  for (const Cell& cell : cells) {
    pass.ref_ns.push_back(reference_ns_per_op());
    const double t0 = now_ns();
    CellOutcome out = cell.run();
    if (spans != nullptr) {
      const int c = spans->add("cell", cell.name, t0, t0, root);
      spans->add("runner", cell.name, out.host_start_ns, out.host_end_ns, c);
      const double digest_end = now_ns();
      spans->add("digest", cell.name, out.host_end_ns, digest_end, c);
      pass.tally.add(cell, out);
      const double harvest_end = now_ns();
      spans->add("harvest", cell.name, digest_end, harvest_end, c);
      spans->close(c, harvest_end);
    }
    pass.cell_ns.push_back(now_ns() - t0);
    // The registry snapshot has been digested (and tallied); keeping one
    // per cell and pass would grow the benchmark's own memory every pass.
    out.metrics.reset();
    pass.cells.push_back(std::move(out));
  }
  if (spans != nullptr) spans->close(root, now_ns());
  return pass;
}

struct Summary {
  double host_ns = 0;      // median over passes of the runner CPU time
  double cell_ns = 0;      // same, including the benchmark's per-cell work
  double raw_host_ns = 0;  // host_ns before scaling to reference speed
  double ref_ns = 0;       // median over passes of the reference's ns/op
  double fired = 0;
  double sim_seconds = 0;
  double ns_per_event = 0;
  double sim_s_per_cpu_s = 0;
};

/// Medians over passes of each pass's summed cell times, scaled to
/// reference speed. Every pass repeats the same deterministic computation
/// (the digest check proves it), so passes differ only in how fast the
/// host ran them. On a shared host that speed drifts by up to 2x within
/// seconds, as neighbours contend for the core, and CPU time does not
/// exclude it; the reference computation, measured before every cell,
/// slows in step, so each pass is scaled by its reference reading.
Summary summarize(const std::vector<const Pass*>& passes) {
  Summary s;
  if (passes.empty()) return s;
  std::vector<double> host;
  std::vector<double> whole;
  std::vector<double> raw;
  std::vector<double> ref;
  for (const Pass* p : passes) {
    double h = 0;
    double w = 0;
    for (std::size_t c = 0; c < p->cells.size(); ++c) {
      h += p->cells[c].host_ns();
      w += p->cell_ns[c];
    }
    host.push_back(h * p->scale());
    whole.push_back(w * p->scale());
    raw.push_back(h);
    ref.push_back(median(p->ref_ns));
  }
  for (const CellOutcome& o : passes.front()->cells) {
    s.fired += o.fired;
    s.sim_seconds += o.sim_seconds;
  }
  s.host_ns = median(host);
  s.cell_ns = median(whole);
  s.raw_host_ns = median(raw);
  s.ref_ns = median(ref);
  s.ns_per_event = s.host_ns / s.fired;
  s.sim_s_per_cpu_s = s.sim_seconds / (s.host_ns / 1e9);
  return s;
}

/// Failed cell runs: a bad verdict, or a digest that differs from the
/// first pass's (traced and untraced passes alike).
std::int64_t count_failures(const std::vector<Pass>& passes,
                            const std::vector<Cell>& cells) {
  std::int64_t failed = 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const CellOutcome& o = passes[p].cells[c];
      const CellOutcome& first = passes[0].cells[c];
      std::string why = o.verdict;
      if (o.ok && (o.digest != first.digest || o.fired != first.fired)) {
        why = "result digest differs from pass 0";
      }
      if (why.empty()) continue;
      ++failed;
      std::fprintf(stderr, "FAILED %s (pass %zu): %s\n", cells[c].name.c_str(),
                   p, why.c_str());
    }
  }
  return failed;
}

std::uint64_t workload_digest(const Pass& pass) {
  std::uint64_t h = 14695981039346656037ull;
  for (const CellOutcome& o : pass.cells) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((o.digest >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  return h;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metric(const Metric& m) {
  std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Host seconds to construct and start() every cell's testbed: one
/// set-up of the workload. Teardown is not timed.
double set_up_once(const std::vector<Cell>& cells, SpanLog* spans) {
  double total = 0;
  for (const Cell& cell : cells) {
    const double t0 = now_ns();
    double t1 = 0;
    {
      Testbed tb(cell.testbed);
      tb.start();
      t1 = now_ns();
    }
    total += t1 - t0;
    if (spans != nullptr) spans->add("setup", cell.name, t0, t1, -1);
  }
  return total / 1e9;
}

int run_workload(const Args& args) {
  const std::vector<Cell> cells = make_cells(args.workload, args.seed);
  if (cells.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  SpanLog spans;

  reference_ns_per_op();  // warm-up: builds the reference's state

  Calibration cal;
  double cal_scale = 1;  // scales calibrated ns to reference speed
  if (args.trace) {
    cal = calibrate([&](const std::string& layer, double t0, double t1) {
      spans.add("calibrate." + layer, "", t0, t1, -1);
    });
    std::vector<double> ref;
    for (int i = 0; i < 5; ++i) ref.push_back(reference_ns_per_op());
    cal_scale = kReferenceNominalNs / median(ref);
  }

  // Measured passes: closed loop over the cells until the time is up.
  // Traced runs alternate untraced (even) and traced (odd) passes. Full
  // set-ups of the workload run between passes, so their median samples
  // the whole run rather than one moment of it; the traced run records
  // the spans of one set-up and reports no set-up time.
  std::vector<double> setups;
  if (args.trace) setups.push_back(set_up_once(cells, &spans));
  std::vector<Pass> passes;
  const double deadline = wall_ns() + args.seconds * 1e9;
  while (passes.size() < 2 || wall_ns() < deadline) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    const double wall0 = wall_ns();
    passes.push_back(run_pass(cells, traced ? &spans : nullptr,
                              static_cast<int>(passes.size())));
    const Pass& pass = passes.back();
    const double wall = wall_ns() - wall0;
    double host = 0;
    for (const CellOutcome& o : pass.cells) host += o.host_ns();
    std::fprintf(stderr,
                 "pass %zu%s: runner CPU time %.1f ms (%.1f ms at reference "
                 "speed), reference %.2f ns/op, pass wall time %.1f ms\n",
                 passes.size() - 1, traced ? " (traced)" : "", host / 1e6,
                 host * pass.scale() / 1e6, median(pass.ref_ns), wall / 1e6);
    for (int rep = 0; !args.trace && rep < 4; ++rep) {
      setups.push_back(set_up_once(cells, nullptr) * pass.scale());
    }
  }

  const std::int64_t attempted =
      static_cast<std::int64_t>(passes.size() * cells.size());
  std::int64_t failed = count_failures(passes, cells);

  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  for (const Pass& p : passes) (p.traced ? traced : untraced).push_back(&p);
  const Summary s = summarize(untraced);

  std::printf("workload %s, seed %llu: %zu cells x %zu passes (%zu traced), "
              "%.0f events per pass\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              cells.size(), passes.size(), traced.size(), s.fired);
  std::printf("  result digest %016llx\n",
              static_cast<unsigned long long>(workload_digest(passes[0])));
  std::printf("  host speed: reference %.2f ns/op (median over passes), "
              "%.2f unscaled CPU ns per event\n",
              s.ref_ns, s.raw_host_ns / s.fired);

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Allocations of the second pass: the first may pay one-time set-up.
    const Pass& p = passes[1];
    double allocs = 0;
    double bytes = 0;
    for (const CellOutcome& o : p.cells) {
      allocs += static_cast<double>(o.allocs);
      bytes += static_cast<double>(o.alloc_bytes);
    }
    metrics = {
        {"ns_per_event", s.ns_per_event, "ns"},
        {"sim_s_per_cpu_s", s.sim_s_per_cpu_s, "s/s"},
        {"allocs_per_event", allocs / s.fired, "allocs/event"},
        {"alloc_bytes_per_event", bytes / s.fired, "B/event"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setups), "s"},
    };
    for (const Metric& m : metrics) print_metric(m);
  } else {
    const Summary t = summarize(traced);
    const Pass& last = *traced.back();
    // Calibrations are raw CPU ns, so the shares divide by host time at
    // the speed the calibration ran at.
    metrics = last.tally.metrics(cal, t.host_ns / cal_scale);
    metrics.push_back({"trace.ns_per_event", t.cell_ns / t.fired, "ns"});
    metrics.push_back(
        {"trace.untraced_ns_per_event", s.cell_ns / s.fired, "ns"});
    metrics.push_back({"trace.overhead_ns_per_event",
                       t.cell_ns / t.fired - s.cell_ns / s.fired, "ns"});
    for (const Metric& m : metrics) print_metric(m);

    // Fault-free workloads must not touch the fault, recovery, auditor or
    // snapshot layers at all.
    if (args.workload != "faulted") {
      const double stray = last.tally.fault_injected() +
                           last.tally.recovery_injected() +
                           last.tally.snapshot_epochs() +
                           last.tally.audit_sweeps();
      if (stray != 0) {
        std::fprintf(stderr,
                     "FAILED zero-count prediction: fault/recovery/snapshot "
                     "layers ran on %s\n",
                     args.workload.c_str());
        ++failed;
      }
    }
    std::filesystem::create_directories(args.out);
    const std::string path = args.out + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!spans.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  %zu spans written to %s\n", spans.size(), path.c_str());
  }
  std::printf("  %-40s %16lld of %lld\n", "cells_failed",
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: one short cell per workload, checking the metric arithmetic
// ---------------------------------------------------------------------------

int self_test(std::uint64_t seed) {
  int checks = 0;
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) ++failures;
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  };
  for (std::uint64_t s : {seed, kHeldOutSeed}) {
    for (const std::string& w : workload_names()) {
      const std::vector<Cell> cells = make_cells(w, s, /*short_spans=*/true);
      const std::string tag = w + " seed " + std::to_string(s);
      std::vector<Pass> passes;
      SpanLog spans;
      for (int p = 0; p < 3; ++p) {
        passes.push_back(run_pass(cells, p == 2 ? &spans : nullptr, p));
      }
      check(count_failures(passes, cells) == 0,
            tag + ": cells pass, digests repeat across passes and tracing");

      // ns_per_event is host time over fired events, host time being the
      // median over passes (of two: their mean) of each pass's runner
      // time times nominal / measured reference ns per op.
      const Summary sum = summarize({&passes[0], &passes[1]});
      double host = 0;
      double fired = 0;
      for (int p = 0; p < 2; ++p) {
        double pass_host = 0;
        for (const CellOutcome& o : passes[p].cells) pass_host += o.host_ns();
        host += pass_host * kReferenceNominalNs / median(passes[p].ref_ns) / 2;
      }
      for (const CellOutcome& o : passes[0].cells) fired += o.fired;
      check(std::abs(sum.ns_per_event - host / fired) <=
                1e-9 * sum.ns_per_event,
            tag + ": ns_per_event == reference-scaled host ns / fired events");
      check(sum.raw_host_ns > 0 && sum.ref_ns > 0,
            tag + ": unscaled host time and reference reading are positive");

      bool repeat = true;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const CellOutcome& a = passes[1].cells[c];
        const CellOutcome& b = passes[2].cells[c];
        repeat = repeat && a.allocs == b.allocs &&
                 a.alloc_bytes == b.alloc_bytes && a.fired == b.fired &&
                 a.digest == b.digest;
      }
      check(repeat, tag + ": allocations, bytes, events and digest repeat");

      const LayerTally& t = passes[2].tally;
      if (w == "faulted") {
        check(t.fault_injected() > 0 && t.snapshot_epochs() > 0 &&
                  t.audit_sweeps() > 0,
              tag + ": faults injected, epochs hashed, auditor swept");
      } else {
        check(t.fault_injected() == 0 && t.recovery_injected() == 0 &&
                  t.snapshot_epochs() == 0 && t.audit_sweeps() == 0,
              tag + ": fault/recovery/snapshot/audit counts exactly zero");
      }
      check(spans.size() == 1 + 4 * cells.size(),
            tag + ": one pass span plus cell/runner/digest/harvest per cell");
    }
  }
  std::printf("self-test: %d checks, %d failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload stream|request|faulted "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n"
                 "       perfbench --self-test [--seed N]\n");
    return 2;
  }
  if (args.self_test) return perfbench::self_test(args.seed);
  return perfbench::run_workload(args);
}
