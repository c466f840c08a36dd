// Scenario budgets, the no-progress watchdog, and the sweep runner.
//
// A chaos sweep intentionally runs scenarios that may wedge: 100% kick
// loss with the guest watchdog off is *supposed* to stall forever. Without
// supervision one such scenario hangs the whole bench process. The
// watchdog runs each scenario in bounded slices (sim-time budget, event
// budget, progress probes) and converts a hang or livelock into a
// structured `ScenarioReport`; `ExperimentRunner` keeps the rest of the
// sweep going and turns any failure into a non-zero process exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace es2 {

struct ScenarioBudget {
  /// Hard ceiling on total simulated time across all run_for spans.
  SimDuration max_sim_time = sec(30);
  /// Hard ceiling on events executed under the watchdog (catches
  /// same-timestamp livelocks that never advance the clock).
  std::uint64_t max_events = 500'000'000;
  /// Slice length between budget/progress checks.
  SimDuration progress_window = msec(50);
  /// Consecutive event-churning windows without progress before the
  /// scenario is declared stalled.
  int stall_windows = 8;
  /// Per-window progress allowance that still counts as "stalled". The
  /// default 0 keeps the strict rule (any movement resets the stall
  /// counter); overload scenarios raise it because a livelocked server
  /// still trickles a handful of accepts per window — receive livelock is
  /// throughput collapse to near-zero, not bit-exact zero (Mogul &
  /// Ramakrishnan). A window counts as stalled when progress advanced by
  /// at most this many units.
  std::int64_t stall_tolerance = 0;
};

enum class ScenarioStatus {
  kOk,
  kSimTimeBudget,  // exceeded max_sim_time
  kEventBudget,    // exceeded max_events (livelock signature)
  kNoProgress,     // events churn but the progress probe is flat
  kLivelock,       // progress flat while the activity probe kept climbing
  kException,      // the scenario body threw
};

const char* to_string(ScenarioStatus status);

struct ScenarioReport {
  std::string name;
  ScenarioStatus status = ScenarioStatus::kOk;
  SimTime sim_now = 0;
  std::uint64_t events = 0;
  std::string detail;
  /// Top metric deltas since the testbed's start() (Testbed::
  /// top_metric_deltas); appended to failure lines so a tripped scenario
  /// reports what was — or wasn't — moving.
  std::string telemetry;

  bool ok() const { return status == ScenarioStatus::kOk; }
  /// One-line structured form, grep-able as "WATCHDOG <name>: ...".
  std::string to_line() const;
};

/// Supervises one Simulator: run in slices, checking budgets and an
/// application-supplied progress probe between slices. Once tripped the
/// status is sticky and further run_for calls return immediately.
class ScenarioWatchdog {
 public:
  /// `progress` returns a monotonically non-decreasing figure of merit
  /// (packets delivered, requests completed); flat progress across
  /// `stall_windows` event-churning windows means livelock/wedge.
  using ProgressProbe = std::function<std::int64_t()>;

  ScenarioWatchdog(Simulator& sim, ScenarioBudget budget);

  /// Optional second probe that distinguishes a livelocked world from a
  /// merely wedged one: a monotonic measure of low-level work (interrupt
  /// deliveries, NAPI polls, backend packets). When a no-progress trip
  /// fires and this figure advanced in every flat window, the status is
  /// kLivelock — the machine was demonstrably busy, the application just
  /// never got the CPU — instead of the generic kNoProgress.
  void set_activity_probe(ProgressProbe probe) {
    activity_ = std::move(probe);
  }

  /// Runs the simulation for `span` (or until a budget trips). Returns
  /// true if the span completed with budgets intact.
  bool run_for(SimDuration span, const ProgressProbe& progress);

  ScenarioStatus status() const { return status_; }
  bool ok() const { return status_ == ScenarioStatus::kOk; }
  ScenarioReport report(std::string name) const;

 private:
  void trip(ScenarioStatus status, std::string detail);

  Simulator& sim_;
  ScenarioBudget budget_;
  SimTime start_;
  std::uint64_t events_start_;
  ScenarioStatus status_ = ScenarioStatus::kOk;
  std::string detail_;
  std::int64_t last_progress_ = -1;
  int flat_windows_ = 0;
  ProgressProbe activity_;
  std::int64_t last_activity_ = 0;
  bool activity_in_every_flat_window_ = false;
};

/// Runs a set of named scenarios (in parallel — each must own its world),
/// collecting a report per scenario. Failures never abort the sweep; they
/// make exit_code() non-zero. Each cell runs once: scenarios are
/// deterministic per seed, so a killed or failed sweep is simply run
/// again and reproduces the same reports.
class ExperimentRunner {
 public:
  using ScenarioFn = std::function<ScenarioReport(const std::string& name)>;

  /// `threads` <= 0 uses hardware concurrency.
  explicit ExperimentRunner(int threads = 0) : threads_(threads) {}

  void add(std::string name, ScenarioFn fn);

  /// Runs every added scenario; exceptions become kException reports.
  void run_all();

  const std::vector<ScenarioReport>& reports() const { return reports_; }
  bool all_ok() const;
  int exit_code() const { return all_ok() ? 0 : 1; }

  /// Prints one structured line per failed scenario (nothing when clean).
  void print_failures(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    ScenarioFn fn;
  };

  int threads_;
  std::vector<Entry> entries_;
  std::vector<ScenarioReport> reports_;
};

}  // namespace es2
