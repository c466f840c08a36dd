// Shared helpers for the per-figure bench binaries.
//
// Every bench accepts `--fast` (shorter warmup/measure for smoke runs) and
// writes its series as CSV under bench/out/ next to printing a table with
// the paper's reference values for side-by-side comparison.
#pragma once

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "base/csv.h"
#include "base/strings.h"
#include "base/table.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "profile/blame_export.h"
#include "profile/prof_export.h"
#include "snapshot/state_hash.h"
#include "metrics/bench_schema.h"
#include "trace/export.h"

namespace es2::bench {

struct BenchArgs {
  bool fast = false;
  std::uint64_t seed = 1;
  std::string out_dir = "bench/out";
  /// --trace=<path>: run one representative cell with tracing on and
  /// export its event-path trace as Perfetto JSON to <path>.
  std::string trace_path;
  /// --trace-smoke: after exporting, re-read the file, validate the JSON
  /// and assert the stage latencies are populated; exit nonzero otherwise.
  bool trace_smoke = false;
  /// --profile=<path>: run one representative cell with the scoped
  /// profiler on and export collapsed stacks (flamegraph input) to
  /// <path>, the es2-prof-v1 aggregate to <path>.json and — when the cell
  /// is also traced — the es2-blame-v1 latency-budget report to
  /// <path>.blame.json plus the raw ES2T trace to <path>.trace.bin
  /// (tools/latency_blame input).
  std::string profile_path;
  /// --hash-epochs=<path>: run one representative cell with epoch
  /// state-hashing on and export its es2-hash-v1 series to <path>
  /// (divergence-bisector input).
  std::string hash_path;
  /// --ckpt=<dir>: checkpoint each completed sweep cell into <dir>.
  /// --resume=<dir> additionally replays cells that already finished OK.
  std::string ckpt_dir;
  bool resume = false;
  /// --retries=N: bounded per-cell retries before a WATCHDOG row stands.
  int retries = 1;
  /// --die-after=N: crash-safety test hook — _Exit after N cells
  /// checkpoint (requires --ckpt).
  int die_after = 0;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) args.fast = true;
    if (std::strcmp(argv[i], "--trace-smoke") == 0) args.trace_smoke = true;
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) args.out_dir = argv[i] + 6;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) args.trace_path = argv[i] + 8;
    if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      args.profile_path = argv[i] + 10;
    }
    if (std::strncmp(argv[i], "--hash-epochs=", 14) == 0) {
      args.hash_path = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--ckpt=", 7) == 0) args.ckpt_dir = argv[i] + 7;
    if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      args.ckpt_dir = argv[i] + 9;
      args.resume = true;
    }
    if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      args.retries = static_cast<int>(std::strtol(argv[i] + 10, nullptr, 10));
    }
    if (std::strncmp(argv[i], "--die-after=", 12) == 0) {
      args.die_after = static_cast<int>(std::strtol(argv[i] + 12, nullptr, 10));
    }
  }
  return args;
}

/// Runner options carrying this bench's checkpoint/resume/retry flags.
inline RunnerOptions runner_options(const BenchArgs& args) {
  RunnerOptions o;
  o.checkpoint_dir = args.ckpt_dir;
  o.resume = args.resume;
  o.max_attempts = args.retries < 1 ? 1 : args.retries;
  o.die_after_cells = args.die_after;
  return o;
}

/// Trace request for the one bench cell elected to run traced (no-op
/// TraceOptions when --trace was not given).
inline TraceOptions trace_request(const BenchArgs& args) {
  TraceOptions t;
  t.enabled = !args.trace_path.empty();
  t.capacity = std::size_t{1} << 18;
  return t;
}

/// Profiler request for the one bench cell elected to run profiled (no-op
/// ProfileOptions when --profile was not given). Pairs with trace_request:
/// benches arm both on the same cell so the blame report and the profiler
/// slices describe one run.
inline ProfileOptions profile_request(const BenchArgs& args) {
  ProfileOptions p;
  p.enabled = !args.profile_path.empty();
  return p;
}

/// Exports the traced cell's journey data to --trace=<path> and prints the
/// stage breakdown. When the cell was also profiled, the profiler's span
/// slices ride along as Perfetto "X" events next to the journey bars.
/// Returns false when no records were captured, the write failed, or
/// --trace-smoke was requested and validation failed (invalid JSON, empty
/// stages).
inline bool export_trace(const BenchArgs& args, const TraceData* trace,
                         const TraceStages& stages,
                         const ProfileData* profile = nullptr) {
  if (args.trace_path.empty()) return true;
  if (trace == nullptr || trace->records.empty()) {
    std::printf("[trace requested but no records captured]\n");
    return false;
  }
  const std::vector<PerfettoSlice> prof_slices =
      profile != nullptr ? prof_perfetto_slices(*profile)
                         : std::vector<PerfettoSlice>{};
  const std::string json =
      to_perfetto_json(trace->records, trace->spans, prof_slices);
  if (!write_file(args.trace_path, json)) {
    std::printf("[trace export to %s failed]\n", args.trace_path.c_str());
    return false;
  }
  std::printf(
      "[trace: %zu records, %lld journeys (%lld complete) -> %s]\n"
      "[stages ns p50/p99: kick->backend %lld/%lld, backend->msi %lld/%lld, "
      "msi->dispatch %lld/%lld, dispatch->eoi %lld/%lld, end-to-end "
      "%lld/%lld]\n",
      trace->records.size(), static_cast<long long>(stages.journeys),
      static_cast<long long>(stages.complete), args.trace_path.c_str(),
      static_cast<long long>(stages.kick_to_backend_p50),
      static_cast<long long>(stages.kick_to_backend_p99),
      static_cast<long long>(stages.backend_to_msi_p50),
      static_cast<long long>(stages.backend_to_msi_p99),
      static_cast<long long>(stages.msi_to_dispatch_p50),
      static_cast<long long>(stages.msi_to_dispatch_p99),
      static_cast<long long>(stages.dispatch_to_eoi_p50),
      static_cast<long long>(stages.dispatch_to_eoi_p99),
      static_cast<long long>(stages.end_to_end_p50),
      static_cast<long long>(stages.end_to_end_p99));
  if (!args.trace_smoke) return true;
  std::string reread;
  if (!read_file(args.trace_path, &reread) || !json_valid(reread)) {
    std::printf("[trace smoke FAILED: exported JSON does not parse]\n");
    return false;
  }
  if (stages.complete <= 0 || stages.end_to_end_p50 <= 0 ||
      stages.msi_to_dispatch_p50 <= 0 || stages.dispatch_to_eoi_p50 <= 0) {
    std::printf("[trace smoke FAILED: stage latencies not populated]\n");
    return false;
  }
  std::printf("[trace smoke ok]\n");
  return true;
}

/// Epoch-hash request for the one bench cell elected to run hashed (no-op
/// SnapshotOptions when --hash-epochs was not given).
inline SnapshotOptions hash_request(const BenchArgs& args) {
  SnapshotOptions s;
  s.hash_epochs = !args.hash_path.empty();
  return s;
}

/// Exports the hashed cell's es2-hash-v1 series to --hash-epochs=<path>.
/// Returns false only when the export was requested and failed.
inline bool export_hash_log(const BenchArgs& args, const HashSeries* series) {
  if (args.hash_path.empty()) return true;
  if (series == nullptr || series->entries.empty()) {
    std::printf("[--hash-epochs requested but no epochs recorded]\n");
    return false;
  }
  if (!write_file(args.hash_path, series->to_json_text())) {
    std::printf("[hash export to %s failed]\n", args.hash_path.c_str());
    return false;
  }
  std::printf("[epoch hashes: %zu epochs x %zu components -> %s]\n",
              series->entries.size(), series->component_names.size(),
              args.hash_path.c_str());
  return true;
}

/// Exports the profiled cell's data to --profile=<path>: collapsed stacks
/// at <path>, the es2-prof-v1 aggregate at <path>.json, and — when the
/// cell was also traced — the es2-blame-v1 latency-budget report at
/// <path>.blame.json plus the raw ES2T binary trace at <path>.trace.bin,
/// printing the per-component budget table. Returns false only when a
/// requested write failed.
inline bool export_profile(const BenchArgs& args, const ProfileData* profile,
                           const TraceData* trace = nullptr) {
  if (args.profile_path.empty()) return true;
  if (profile == nullptr) {
    std::printf("[--profile requested but no profiler ran]\n");
    return false;
  }
  if (profile->spans.empty() && profile->nodes.empty()) {
    std::printf("[profile requested but no scopes recorded]\n");
  }
  if (!write_file(args.profile_path,
                  prof_to_collapsed(*profile, CollapsedWeight::kSimNs))) {
    std::printf("[profile export to %s failed]\n", args.profile_path.c_str());
    return false;
  }
  if (!write_file(args.profile_path + ".json", prof_to_json_text(*profile))) {
    std::printf("[profile export to %s.json failed]\n",
                args.profile_path.c_str());
    return false;
  }
  std::printf("[profile: %zu span stats, %zu scope nodes, %zu slices -> %s]\n",
              profile->spans.size(), profile->nodes.size(),
              profile->slices.size(), args.profile_path.c_str());
  if (trace != nullptr && !trace->records.empty()) {
    const BlameBreakdown blame = blame_of(trace);
    if (!write_blame_file(args.profile_path + ".blame.json", blame)) {
      std::printf("[blame export to %s.blame.json failed]\n",
                  args.profile_path.c_str());
      return false;
    }
    if (!write_file(args.profile_path + ".trace.bin",
                    to_binary(trace->records))) {
      std::printf("[trace export to %s.trace.bin failed]\n",
                  args.profile_path.c_str());
      return false;
    }
    std::printf("%s", render_blame_markdown(blame_summary(blame)).c_str());
    std::printf("[blame: %lld journeys (%lld attributed) -> %s.blame.json]\n",
                static_cast<long long>(blame.journeys),
                static_cast<long long>(blame.complete),
                args.profile_path.c_str());
  }
  return true;
}

/// --profile for benches without a natural testbed cell: runs one short
/// canonical stream with the profiler (and, for blame, the tracer) on and
/// exports it. No-op when the flag was not given.
inline bool export_standalone_profile(const BenchArgs& args) {
  if (args.profile_path.empty()) return true;
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.seed = args.seed;
  o.warmup = msec(100);
  o.measure = msec(400);
  o.profile = profile_request(args);
  o.trace.enabled = true;
  o.trace.capacity = std::size_t{1} << 18;
  const StreamResult r = run_stream(o);
  return export_profile(args, r.profile.get(), r.trace.get());
}

/// --hash-epochs for benches without a natural testbed cell (micro,
/// eventcore, related_work): runs one short canonical stream with hashing
/// on and exports its series. No-op when the flag was not given.
inline bool export_standalone_hash_log(const BenchArgs& args) {
  if (args.hash_path.empty()) return true;
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.seed = args.seed;
  o.warmup = msec(100);
  o.measure = msec(400);
  o.snapshot = hash_request(args);
  const StreamResult r = run_stream(o);
  return export_hash_log(args, r.hashes.get());
}

inline void print_header(const char* id, const char* title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("ES2 reproduction (simulated testbed; compare shapes, not\n");
  std::printf("absolute numbers — see EXPERIMENTS.md)\n");
  std::printf("================================================================\n");
}

inline std::string count_str(double v) {
  return with_commas(static_cast<std::int64_t>(v));
}

inline void write_csv(const BenchArgs& args, const std::string& name,
                      const CsvWriter& csv) {
  const std::string path = args.out_dir + "/" + name + ".csv";
  if (csv.write_file(path)) {
    std::printf("[series written to %s]\n", path.c_str());
  }
}

/// Starts this bench's `BENCH_<name>.json` report, stamped with the run's
/// --fast/--seed so the gate can refuse incomparable comparisons.
inline BenchReport make_report(const BenchArgs& args, const std::string& name) {
  return BenchReport(name, args.fast, args.seed);
}

/// Writes the report to `<out_dir>/BENCH_<name>.json`. Every bench calls
/// this unconditionally — the JSON is the regression gate's input.
inline bool write_bench_report(const BenchArgs& args,
                               const BenchReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/BENCH_" + report.bench() + ".json";
  if (!report.write_file(path)) {
    std::printf("[could not write %s]\n", path.c_str());
    return false;
  }
  std::printf("[bench report written to %s]\n", path.c_str());
  return true;
}

}  // namespace es2::bench
