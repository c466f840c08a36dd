// The benchmark's workloads: each is a fixed list of experiment cells, and
// each cell is one call to a public runner in harness/experiments.h. The
// workload seed reaches the runners only as per-cell seeds derived here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/testbed.h"

namespace perfbench {

/// One runner call reduced to what the benchmark checks and aggregates.
struct CellOutcome {
  bool ok = false;           // watchdog verdict acceptable, auditor clean
  std::string verdict;       // why the cell failed (empty when ok)
  std::uint64_t digest = 0;  // FNV over every returned scalar + fired events
  double fired = 0;          // eventcore.fired
  double sim_seconds = 0;    // simulated span the runner covered
  double app_ops = 0;        // memcached responses, httpd requests, accepts
  double audit_sweeps = 0;   // invariant-auditor sweeps (chaos/recovery)
  std::shared_ptr<es2::MetricsData> metrics;
  // Host cost of the runner call alone (digesting excluded), on the
  // thread's CPU clock in ns, with the heap allocations it made.
  double host_start_ns = 0;
  double host_end_ns = 0;
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;

  double host_ns() const { return host_end_ns - host_start_ns; }
};

/// CPU time of the calling thread in ns: the clock every benchmark span
/// and host-time metric uses. It advances only while the thread runs, so
/// time the thread waits descheduled, or its vCPU is stolen by the
/// hypervisor, is not charged to the simulator.
double now_ns();

/// Host steady-clock time in ns; only the run deadline uses it.
double wall_ns();

struct Cell {
  std::string name;
  es2::Es2Config config;
  bool macro = false;
  /// The testbed the runner builds for this cell (timed as set-up).
  es2::TestbedOptions testbed;
  std::function<CellOutcome()> run;
};

/// The testbed a runner builds for `config` on the micro (1 VM x 1 vCPU)
/// or macro (4 VMs x 4 vCPUs, stacked) topology, mirrored from
/// harness/experiments.cpp.
es2::TestbedOptions testbed_for(const es2::Es2Config& config, bool macro,
                                std::uint64_t seed);

/// Workload names in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// The cells of `workload` for `seed`; empty when the name is unknown.
/// `short_spans` shrinks every simulated span (the self-test).
std::vector<Cell> make_cells(const std::string& workload, std::uint64_t seed,
                             bool short_spans = false);

}  // namespace perfbench
