// A fixed reference computation that measures how fast the host runs right
// now. It shares no code with the simulator and bypasses the global
// operator new that the simulator's allocation hook replaces, so a change
// to `src/` cannot move it; a slower or contended host slows it along with
// the simulator.
#pragma once

namespace perfbench {

/// The reference's ns per operation at the speed every host-time metric is
/// scaled to. A host time T measured while the reference reads r ns/op is
/// reported as T * kReferenceNominalNs / r.
constexpr double kReferenceNominalNs = 100.0;

/// Runs one fixed batch of the reference mix and returns its CPU ns per
/// operation. The mix is the core of a discrete-event simulator: a
/// binary-heap event queue 4096 deep, calls through function pointers, and
/// small malloc/free pairs. Its working set fits in the core's own caches:
/// on a shared host the simulator's speed tracks core contention (a busy
/// sibling hyperthread, frequency), not memory latency, and a cache-resident
/// mix tracks it best.
double reference_ns_per_op();

}  // namespace perfbench
