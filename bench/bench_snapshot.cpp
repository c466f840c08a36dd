// Snapshot microbench — what does the state-hashing layer cost and carry?
//
// Not a paper figure: this bench characterizes the epoch-hash layer. It
// builds the canonical micro testbed (PI+H+R, one netperf TCP stream),
// runs it warm with epoch hashing on, and reports:
//
//  * deterministic, gated: the component count, the bytes each
//    component's snapshot_state hashes and their total (a new field in
//    any component shows up here as a deliberate baseline update), the
//    epoch count recorded by the hash log and hash stability (two digests
//    of an idle world must agree);
//  * wall-clock, informational: ns per world hash, the price of one
//    epoch tick.
//
// Usage: bench_snapshot [--fast] [--seed=N] [--out=DIR] [--observe=DIR]
#include <chrono>
#include <string>
#include <vector>

#include "apps/netperf.h"
#include "bench_common.h"
#include "snapshot/snapshot.h"
#include "snapshot/state_hash.h"

using namespace es2;
using namespace es2::bench;

namespace {

/// Metric-key-safe component name ("vhost/vm0" -> "vhost.vm0").
std::string key_of(const std::string& component) {
  std::string key = component;
  for (char& c : key) {
    if (c == '/') c = '.';
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  print_header("Snapshot", "per-component state bytes and hashing cost");

  TestbedOptions to;
  to.config = Es2Config::pi_h_r();
  to.seed = args.seed;
  observe_request(args, to);
  to.snapshot.hash_epochs = true;
  to.snapshot.epoch = msec(5);
  Testbed tb(to);
  const std::uint64_t flow = 100;
  NetperfSender sender(tb.guest(), tb.frontend(), flow, Proto::kTcp, 1024, 0);
  tb.guest().add_task(sender);
  PeerStreamReceiver receiver(tb.peer(), flow, Proto::kTcp);
  tb.snapshotter().add("app/netperf-tx0", sender);
  tb.snapshotter().add("app/peer-rx0", receiver);

  tb.start();
  tb.sim().run_for(args.fast ? msec(100) : msec(400));

  BenchReport report = make_report(args, "snapshot");

  // --- deterministic state shape (gated: bytes are bytes) ----------------
  const std::vector<std::string> names = tb.snapshotter().names();
  const std::vector<SnapshotWriter> walk = tb.snapshotter().walk();
  std::size_t total_bytes = 0;
  for (const SnapshotWriter& w : walk) total_bytes += w.byte_size();
  report.add("world.sections", static_cast<double>(walk.size()));
  report.add("world.total_bytes", static_cast<double>(total_bytes));

  CsvWriter csv({"component", "bytes", "hash"});
  Table t({"component", "bytes", "hash"});
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const std::size_t size = walk[i].byte_size();
    report.add("bytes." + key_of(names[i]), static_cast<double>(size));
    const std::string hex = format("%016llx", static_cast<unsigned long long>(
                                                  walk[i].hash()));
    csv.add_row({names[i], std::to_string(size), hex});
    t.add_row({names[i], std::to_string(size), hex});
  }
  std::printf("%s", t.render().c_str());
  write_csv(args, "snapshot", csv);

  // --- invariants (gated) --------------------------------------------------
  const std::uint64_t h1 = tb.snapshotter().world_hash();
  const std::uint64_t h2 = tb.snapshotter().world_hash();
  report.add("world.hash_stable", h1 == h2 ? 1.0 : 0.0);
  report.add("epochs.recorded", static_cast<double>(tb.hash_log()->epochs()));

  // --- wall-clock cost (informational, never gated) -----------------------
  using Clock = std::chrono::steady_clock;
  const int iters = args.fast ? 64 : 256;
  std::uint64_t sink = 0;
  const auto hash_start = Clock::now();
  for (int i = 0; i < iters; ++i) sink ^= tb.snapshotter().world_hash();
  const double hash_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - hash_start)
                              .count()) /
      iters;
  report.add_info("hash.ns_per_world_hash", hash_ns);
  std::printf(
      "world: %zu components, %zu bytes; hash %.0f ns (x%d, sink=%llx)\n",
      walk.size(), total_bytes, hash_ns, iters,
      static_cast<unsigned long long>(sink & 0xF));

  write_bench_report(args, report);
  RunArtifacts artifacts;
  harvest(tb, artifacts);
  return export_artifacts(args, artifacts) ? 0 : 1;
}
