// Shared helpers for the per-figure bench binaries.
//
// Every bench accepts `--fast` (shorter warmup/measure for smoke runs) and
// writes its series as CSV under bench/out/ next to printing a table with
// the paper's reference values for side-by-side comparison.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "base/csv.h"
#include "base/file.h"
#include "base/strings.h"
#include "base/table.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "profile/blame_export.h"
#include "snapshot/state_hash.h"
#include "metrics/bench_schema.h"
#include "trace/export.h"

namespace es2::bench {

struct BenchArgs {
  bool fast = false;
  std::uint64_t seed = 1;
  std::string out_dir = "bench/out";
  /// --observe=<dir>: run the bench's elected cell with every observer on
  /// and write its artifacts into <dir> (see export_artifacts).
  std::string observe_dir;
  /// This bench's own flags that were given, in order (see parse_args).
  std::vector<std::string> extra;

  bool has(std::string_view flag) const {
    return std::find(extra.begin(), extra.end(), flag) != extra.end();
  }
};

/// Parses the shared bench flags (`--flag` / `--flag=value` form). `own`
/// names the bench's own flags (`--wedge`, `--soak`), collected into
/// `args.extra`. Any other flag, or a `--seed=` that is not a whole
/// decimal number, exits 2 naming it.
inline BenchArgs parse_args(int argc, char** argv,
                            std::initializer_list<std::string_view> own = {}) {
  BenchArgs args;
  const auto owns = [&](std::string_view flag) {
    return std::find(own.begin(), own.end(), flag) != own.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const char* v = nullptr;  // the value of the flag `is` matched last
    const auto is = [&](std::string_view flag) {
      if (!a.starts_with(flag)) return false;
      v = argv[i] + flag.size();
      return true;
    };
    if (a == "--fast") {
      args.fast = true;
    } else if (is("--seed=")) {
      const char* end = a.data() + a.size();
      const auto [ptr, ec] = std::from_chars(v, end, args.seed);
      if (ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "%s: --seed= needs a decimal number, got '%s'\n",
                     argv[0], v);
        std::exit(2);
      }
    } else if (is("--out=")) {
      args.out_dir = v;
    } else if (is("--observe=")) {
      args.observe_dir = v;
    } else if (owns(a)) {
      args.extra.emplace_back(a);
    } else if (is("--trace=") || is("--profile=") || is("--hash-epochs=")) {
      std::fprintf(stderr,
                   "%s: %.*s is retired; use --observe=<dir>, which writes "
                   "trace.json, profile.folded, blame.json and hashes.json "
                   "into <dir>\n",
                   argv[0], static_cast<int>(a.find('=') + 1), a.data());
      std::exit(2);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      std::exit(2);
    }
  }
  return args;
}

/// Arms every observer on `o` when --observe was given. Benches call it on
/// the one cell they elect to observe; a no-op otherwise.
inline void observe_request(const BenchArgs& args, ObserveOptions& o) {
  if (args.observe_dir.empty()) return;
  o.trace.enabled = true;
  o.trace.capacity = std::size_t{1} << 18;
  o.metrics.enabled = true;
  o.snapshot.hash_epochs = true;
}

/// Writes the observed cell's artifacts into --observe=<dir> and prints
/// their summaries:
///   trace.json      Perfetto records (every TraceRecord field) and
///                   journey bars
///   profile.folded  the blame partition as collapsed stacks weighted by
///                   sim-ns (flamegraph input; empty when no journey was
///                   attributed)
///   blame.json      es2-blame-v1 latency budget (tools/latency_blame
///                   input)
///   hashes.json     es2-hash-v1 epoch series (tools/divergence_bisect input)
/// No-op without --observe. Returns false when an artifact is missing or a
/// write failed.
inline bool export_artifacts(const BenchArgs& args, const RunArtifacts& a) {
  if (args.observe_dir.empty()) return true;
  if (a.trace == nullptr || a.trace->records.empty() || a.hashes == nullptr ||
      a.hashes->entries.empty()) {
    std::printf("[--observe: the observed cell left no trace records or "
                "epoch hashes]\n");
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.observe_dir, ec);
  const std::string dir = args.observe_dir + "/";
  const TraceData& trace = *a.trace;
  const BlameBreakdown& blame = trace.blame;
  const bool written =
      write_file(dir + "trace.json",
                 to_perfetto_json(trace.records, trace.spans)) &&
      write_file(dir + "profile.folded", blame_to_collapsed(blame)) &&
      write_file(dir + "blame.json", blame_to_json_text(blame)) &&
      write_file(dir + "hashes.json", a.hashes->to_json_text());
  if (!written) {
    std::printf("[--observe: writing into %s failed]\n", dir.c_str());
    return false;
  }
  const TraceStages& s = a.stages;
  std::printf(
      "[trace: %zu records, %lld journeys (%lld complete)]\n"
      "[stages ns p50/p99: kick->backend %lld/%lld, backend->msi %lld/%lld, "
      "msi->dispatch %lld/%lld, dispatch->eoi %lld/%lld, end-to-end "
      "%lld/%lld]\n",
      trace.records.size(), static_cast<long long>(s.journeys),
      static_cast<long long>(s.complete),
      static_cast<long long>(s.kick_to_backend_p50),
      static_cast<long long>(s.kick_to_backend_p99),
      static_cast<long long>(s.backend_to_msi_p50),
      static_cast<long long>(s.backend_to_msi_p99),
      static_cast<long long>(s.msi_to_dispatch_p50),
      static_cast<long long>(s.msi_to_dispatch_p99),
      static_cast<long long>(s.dispatch_to_eoi_p50),
      static_cast<long long>(s.dispatch_to_eoi_p99),
      static_cast<long long>(s.end_to_end_p50),
      static_cast<long long>(s.end_to_end_p99));
  std::printf("%s", render_blame_markdown(blame_summary(blame)).c_str());
  std::printf("[blame: %lld journeys (%lld attributed)]\n",
              static_cast<long long>(blame.journeys),
              static_cast<long long>(blame.complete));
  std::printf("[epoch hashes: %zu epochs x %zu components]\n",
              a.hashes->entries.size(), a.hashes->component_names.size());
  std::printf("[observed artifacts written to %s]\n", dir.c_str());
  return true;
}

/// --observe for benches without a natural testbed cell (eventcore,
/// dataplane, related_work): runs one short canonical stream with every
/// observer on and exports it. No-op without --observe.
inline bool export_standalone(const BenchArgs& args) {
  if (args.observe_dir.empty()) return true;
  StreamOptions o;
  o.config = Es2Config::pi_h_r();
  o.seed = args.seed;
  o.warmup = msec(100);
  o.measure = msec(400);
  observe_request(args, o);
  return export_artifacts(args, run_stream(o));
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
