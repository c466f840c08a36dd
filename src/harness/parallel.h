// The sweep runner.
//
// Each simulation is single-threaded and self-contained, so parameter
// sweeps (quota values, packet sizes, request rates, configs) parallelize
// perfectly: one index per scenario on a bounded thread pool. Results are
// written into caller-owned slots, so ordering is deterministic no matter
// how the pool schedules.
//
// Workers pull indices from a shared atomic work index rather than any
// static pre-partition, so a sweep whose scenarios have wildly uneven
// runtimes (macro topologies next to micro ones) never tail-stalls on
// one unlucky worker.
#pragma once

#include <functional>

namespace es2 {

/// Applies `fn(i)` for i in [0, n) on up to `threads` workers (<= 0 uses
/// the hardware concurrency; one worker runs inline). `fn` must not touch
/// shared mutable state: each call builds its own Simulator and writes its
/// own slot. If calls throw, the remaining indices still run and the
/// exception from the lowest throwing index is rethrown afterwards
/// (instead of std::terminate from an exception escaping a worker).
void parallel_for(int n, const std::function<void(int)>& fn, int threads = 0);

}  // namespace es2
