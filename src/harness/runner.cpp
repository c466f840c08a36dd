#include "harness/runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "base/assert.h"
#include "base/log.h"
#include "base/strings.h"
#include "harness/checkpoint.h"
#include "harness/parallel.h"
#include "metrics/metrics.h"
#include "trace/trace.h"

namespace es2 {

const char* to_string(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kOk:
      return "ok";
    case ScenarioStatus::kSimTimeBudget:
      return "sim-time-budget";
    case ScenarioStatus::kEventBudget:
      return "event-budget";
    case ScenarioStatus::kNoProgress:
      return "no-progress";
    case ScenarioStatus::kLivelock:
      return "livelock";
    case ScenarioStatus::kException:
      return "exception";
  }
  return "?";
}

ScenarioStatus scenario_status_from_string(const std::string& s) {
  for (ScenarioStatus status :
       {ScenarioStatus::kOk, ScenarioStatus::kSimTimeBudget,
        ScenarioStatus::kEventBudget, ScenarioStatus::kNoProgress,
        ScenarioStatus::kLivelock, ScenarioStatus::kException}) {
    if (s == to_string(status)) return status;
  }
  return ScenarioStatus::kException;
}

std::string ScenarioReport::to_line() const {
  if (ok()) {
    return format("OK %s: %llu events, sim %.3f ms", name.c_str(),
                  static_cast<unsigned long long>(events),
                  static_cast<double>(sim_now) / 1e6);
  }
  std::string line =
      format("WATCHDOG %s: %s at sim %.3f ms after %llu events (%s)",
             name.c_str(), to_string(status),
             static_cast<double>(sim_now) / 1e6,
             static_cast<unsigned long long>(events), detail.c_str());
  if (!telemetry.empty()) line += format(" telemetry: %s", telemetry.c_str());
  return line;
}

ScenarioWatchdog::ScenarioWatchdog(Simulator& sim, ScenarioBudget budget)
    : sim_(sim),
      budget_(budget),
      start_(sim.now()),
      events_start_(sim.events_executed()) {
  ES2_CHECK(budget_.progress_window > 0);
  ES2_CHECK(budget_.stall_windows > 0);
}

bool ScenarioWatchdog::run_for(SimDuration span,
                               const ProgressProbe& progress) {
  if (status_ != ScenarioStatus::kOk) return false;
  const SimTime span_end = sim_.now() + span;
  while (status_ == ScenarioStatus::kOk && sim_.now() < span_end) {
    const std::uint64_t spent = sim_.events_executed() - events_start_;
    if (spent >= budget_.max_events) {
      trip(ScenarioStatus::kEventBudget,
           format("event budget %llu exhausted",
                  static_cast<unsigned long long>(budget_.max_events)));
      break;
    }
    if (sim_.now() - start_ >= budget_.max_sim_time) {
      trip(ScenarioStatus::kSimTimeBudget,
           format("sim-time budget %.3f ms exhausted",
                  static_cast<double>(budget_.max_sim_time) / 1e6));
      break;
    }
    SimTime slice_end = sim_.now() + budget_.progress_window;
    if (slice_end > span_end) slice_end = span_end;
    // Cap the slice by the remaining event budget too: a same-timestamp
    // livelock never advances the clock, so without the cap one slice
    // would spin forever inside run_until.
    const std::uint64_t slice_cap = budget_.max_events - spent;
    const std::uint64_t executed = sim_.run_until_capped(slice_end, slice_cap);
    if (progress) {
      const std::int64_t current = progress();
      const std::int64_t activity = activity_ ? activity_() : 0;
      const std::int64_t delta = current - last_progress_;
      if (executed > 0 && delta >= 0 && delta <= budget_.stall_tolerance) {
        // Events churned through a whole window yet the figure of merit
        // did not move (beyond the stall tolerance) — count towards a
        // stall verdict. The activity probe decides which kind of stall
        // this is: if low-level work advanced in every flat window, the
        // world is livelocked (busy doing nothing useful), not wedged.
        if (flat_windows_ == 0) {
          activity_in_every_flat_window_ = true;
        }
        if (activity_ && activity == last_activity_) {
          activity_in_every_flat_window_ = false;
        }
        if (++flat_windows_ >= budget_.stall_windows) {
          const bool livelock = activity_ && activity_in_every_flat_window_;
          trip(livelock ? ScenarioStatus::kLivelock
                        : ScenarioStatus::kNoProgress,
               format("progress %s at %lld for %d windows (%.3f ms)%s",
                      budget_.stall_tolerance > 0 ? "stalled" : "flat",
                      static_cast<long long>(current), flat_windows_,
                      static_cast<double>(flat_windows_ *
                                          budget_.progress_window) /
                          1e6,
                      livelock ? ", activity still climbing" : ""));
          break;
        }
      } else {
        flat_windows_ = 0;
      }
      last_progress_ = current;
      last_activity_ = activity;
    }
  }
  return status_ == ScenarioStatus::kOk;
}

void ScenarioWatchdog::trip(ScenarioStatus status, std::string detail) {
  if (status_ != ScenarioStatus::kOk) return;
  status_ = status;
  detail_ = std::move(detail);
  // With tracing on, point the report at the journey nearest the trip.
  if (const Tracer* tracer = sim_.tracer();
      tracer != nullptr && tracer->last_corr() != 0) {
    detail_ += format(" [near corr=%llu]",
                      static_cast<unsigned long long>(tracer->last_corr()));
  }
  ES2_WARN(sim_.now(), "watchdog tripped: %s (%s)", to_string(status_),
           detail_.c_str());
}

ScenarioReport ScenarioWatchdog::report(std::string name) const {
  ScenarioReport r;
  r.name = std::move(name);
  r.status = status_;
  r.sim_now = sim_.now();
  r.events = sim_.events_executed() - events_start_;
  r.detail = detail_;
  return r;
}

void ExperimentRunner::add(std::string name, ScenarioFn fn) {
  entries_.push_back({std::move(name), std::move(fn)});
}

void ExperimentRunner::run_all() {
  reports_.assign(entries_.size(), ScenarioReport{});
  const int max_attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;

  CheckpointDir ckpt(options_.checkpoint_dir);
  if (options_.resume) ckpt.load();
  std::atomic<int> stored{0};

  parallel_for(
      static_cast<int>(entries_.size()),
      [this, &ckpt, &stored, max_attempts](int i) {
        const Entry& e = entries_[static_cast<std::size_t>(i)];
        ScenarioReport& slot = reports_[static_cast<std::size_t>(i)];

        // Replay cells a previous run finished OK. Failed cells re-run:
        // the checkpoint is a crash record, not a verdict to inherit.
        if (const CellCheckpoint* cell = ckpt.find(e.name);
            cell != nullptr && cell->report.ok()) {
          slot = cell->report;
          slot.resumed = true;
          return;
        }

        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
          try {
            slot = e.fn(e.name);
            slot.name = e.name;
          } catch (const std::exception& ex) {
            slot = ScenarioReport{};
            slot.name = e.name;
            slot.status = ScenarioStatus::kException;
            slot.detail = ex.what();
          } catch (...) {
            slot = ScenarioReport{};
            slot.name = e.name;
            slot.status = ScenarioStatus::kException;
            slot.detail = "unknown exception";
          }
          slot.attempts = attempt;
          if (slot.ok()) break;
          if (attempt < max_attempts) {
            ES2_WARN(0, "retrying %s (attempt %d/%d failed: %s)",
                     e.name.c_str(), attempt, max_attempts,
                     to_string(slot.status));
          }
        }

        // Persist the final verdict — pass or WATCHDOG row — so a killed
        // sweep resumes from here rather than from zero.
        if (ckpt.enabled()) {
          CellCheckpoint cell;
          cell.report = slot;
          std::string error;
          if (!ckpt.store(cell, &error)) {
            ES2_WARN(0, "checkpoint store failed for %s: %s", e.name.c_str(),
                     error.c_str());
          } else if (options_.die_after_cells > 0 &&
                     stored.fetch_add(1) + 1 >= options_.die_after_cells) {
            // Crash-safety test hook: die at a cell boundary, checkpoint
            // already durable. _Exit skips destructors on purpose — a
            // real crash would too.
            std::_Exit(kDieExitCode);
          }
        }
      },
      options_.threads);

  retries_ = 0;
  resumed_ = 0;
  for (const ScenarioReport& r : reports_) {
    if (r.resumed) {
      ++resumed_;
    } else {
      retries_ += r.attempts - 1;
    }
  }
  if (options_.registry != nullptr) {
    options_.registry->counter("runner.retries").add(retries_);
    options_.registry->counter("runner.resumed_cells").add(resumed_);
  }
}

bool ExperimentRunner::all_ok() const {
  if (reports_.size() != entries_.size()) return false;
  for (const ScenarioReport& r : reports_) {
    if (!r.ok()) return false;
  }
  return true;
}

void ExperimentRunner::print_failures(std::FILE* out) const {
  for (const ScenarioReport& r : reports_) {
    if (!r.ok()) std::fprintf(out, "%s\n", r.to_line().c_str());
  }
}

}  // namespace es2
