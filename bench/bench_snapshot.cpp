// Snapshot microbench — what does the robustness layer cost and carry?
//
// Not a paper figure: this bench characterizes the es2-snap-v2 layer. It
// builds the canonical micro testbed (PI+H+R, one netperf TCP stream),
// runs it warm with epoch hashing on, and reports:
//
//  * deterministic, gated: the serialized world image size, the section
//    count, per-component section bytes (a new field in any component's
//    snapshot_state shows up here as a deliberate baseline update), the
//    epoch count recorded by the hash log, hash stability (two digests of
//    an idle world must agree) and the serialize->load round trip;
//  * wall-clock, informational: ns per world hash and ns per serialize —
//    the price of one epoch tick and of one checkpoint.
//
// Usage: bench_snapshot [--fast] [--seed=N] [--out=DIR] [--observe=DIR]
#include <chrono>
#include <string>

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
  print_header("Snapshot", "es2-snap-v2 image size and hashing cost");

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

  // --- deterministic image shape (gated; tol 0: bytes are bytes) ----------
  SnapshotWriter w;
  tb.snapshotter().write(w);
  report.add("world.sections", static_cast<double>(w.sections().size()), 0.0);
  report.add("world.total_bytes", static_cast<double>(w.byte_size()), 0.0);

  CsvWriter csv({"component", "bytes", "hash"});
  Table t({"component", "bytes", "hash"});
  for (std::size_t i = 0; i < w.sections().size(); ++i) {
    const SnapshotWriter::Section& s = w.sections()[i];
    const std::size_t size = w.section_size(i);
    report.add("bytes." + key_of(s.name), static_cast<double>(size), 0.0);
    const std::string hex = format("%016llx", static_cast<unsigned long long>(
                                                  w.section_hash(i)));
    csv.add_row({s.name, std::to_string(size), hex});
    t.add_row({s.name, std::to_string(size), hex});
  }
  std::printf("%s", t.render().c_str());
  write_csv(args, "snapshot", csv);

  // --- invariants (gated) --------------------------------------------------
  const std::uint64_t h1 = tb.snapshotter().world_hash();
  const std::uint64_t h2 = tb.snapshotter().world_hash();
  report.add("world.hash_stable", h1 == h2 ? 1.0 : 0.0, 0.0);

  const std::string image = tb.snapshotter().serialize();
  SnapshotReader reader;
  std::string error;
  bool roundtrip = reader.load(image, &error);
  roundtrip = roundtrip && reader.section_count() == w.sections().size() &&
              reader.world_hash() == h1;
  if (!roundtrip) {
    std::printf("[roundtrip FAILED: %s]\n",
                error.empty() ? "hash/section mismatch" : error.c_str());
  }
  report.add("roundtrip.ok", roundtrip ? 1.0 : 0.0, 0.0);
  report.add("epochs.recorded", static_cast<double>(tb.hash_log()->epochs()),
             0.0);

  // --- wall-clock costs (informational, never gated) ----------------------
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
  const auto ser_start = Clock::now();
  std::size_t ser_bytes = 0;
  for (int i = 0; i < iters; ++i) ser_bytes += tb.snapshotter().serialize().size();
  const double ser_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - ser_start)
                              .count()) /
      iters;
  report.add_info("hash.ns_per_world_hash", hash_ns);
  report.add_info("serialize.ns_per_image", ser_ns);
  std::printf(
      "world: %zu sections, %zu bytes; hash %.0f ns, serialize %.0f ns "
      "(x%d, sink=%llx, %zu bytes total)\n",
      w.sections().size(), w.byte_size(), hash_ns, ser_ns, iters,
      static_cast<unsigned long long>(sink & 0xF), ser_bytes);

  write_bench_report(args, report);
  RunArtifacts artifacts;
  harvest(tb, artifacts);
  return export_artifacts(args, artifacts) ? 0 : 1;
}
