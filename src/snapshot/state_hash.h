// Epoch state-hashing: per-component FNV digests on a fixed sim-time
// cadence, the determinism oracle behind the divergence bisector.
//
// A `WorldSnapshotter` is an ordered registry of every Snapshottable in
// one world (the Testbed fills it at construction; workloads append
// themselves when they attach). Walking it hashes each component with a
// fresh SnapshotWriter, giving a per-component digest vector that
// `world_digest` folds into one world digest. `EpochHashLog` records
// those vectors each epoch; the es2-hash-v1 JSON export of two same-seed
// runs feeds `tools/divergence_bisect`, which finds the first divergent
// epoch and names the component whose digest split.
//
// Recording is passive: hashing draws no RNG values and mutates nothing,
// so a hashed run's model trajectory is bit-identical to an unhashed one
// (the epoch timer shifts event sequence numbers uniformly, exactly like
// the metrics sampler).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/units.h"
#include "snapshot/snapshot.h"

namespace es2 {

class Json;

/// Harness-level epoch-hashing switch (off by default: zero events, zero
/// overhead, goldens bit-identical).
struct SnapshotOptions {
  bool hash_epochs = false;
  SimDuration epoch = msec(10);
};

/// Epochs an EpochHashLog retains (a sweep cell records a few hundred at
/// most); later ones are dropped.
inline constexpr std::size_t kMaxEpochs = 65536;

/// World digest: each component's (name, digest) folded in order. The one
/// definition shared by WorldSnapshotter::world_hash and EpochHashLog.
std::uint64_t world_digest(const std::vector<std::string>& names,
                           const std::vector<std::uint64_t>& digests);

class WorldSnapshotter {
 public:
  WorldSnapshotter() = default;
  WorldSnapshotter(const WorldSnapshotter&) = delete;
  WorldSnapshotter& operator=(const WorldSnapshotter&) = delete;

  /// Registers a component under a stable name. Order is the hash-vector
  /// index order; register in a deterministic construction order. Names
  /// must be unique.
  void add(std::string name, const Snapshottable& component);

  std::size_t size() const { return components_.size(); }
  std::vector<std::string> names() const;

  /// One writer per component, in registration order, each holding that
  /// component's digest and byte count.
  std::vector<SnapshotWriter> walk() const;

  /// Digest of the whole world right now.
  std::uint64_t world_hash() const;

  /// Per-component digests, in registration order.
  std::vector<std::uint64_t> component_hashes() const;

 private:
  struct Entry {
    std::string name;
    const Snapshottable* component;
  };
  std::vector<Entry> components_;
};

/// One recorded epoch: the world digest plus each component's digest.
struct EpochHash {
  SimTime t = 0;
  std::uint64_t world = 0;
  std::vector<std::uint64_t> components;
};

/// Self-contained hash series harvested from one run (outlives the world).
struct HashSeries {
  std::uint64_t seed = 0;
  SimDuration epoch = 0;
  std::vector<std::string> component_names;
  std::vector<EpochHash> entries;

  /// es2-hash-v1 JSON document.
  Json to_json() const;
  std::string to_json_text() const;
  static bool from_json(const Json& doc, HashSeries* out, std::string* error);
  static bool parse(const std::string& text, HashSeries* out,
                    std::string* error);
};

/// Where two hash series split. `epoch == -1`: no divergence.
struct Divergence {
  std::int64_t epoch = -1;     // index into entries
  SimTime t = 0;               // sim time of the divergent epoch
  std::vector<std::string> components;  // names whose digests differ there
  std::string detail;          // human-readable summary
};

/// Finds the first epoch where the two series' world hashes differ and
/// names the components responsible. Requires comparable series (same
/// epoch period and component set); returns epoch == -2 with a detail
/// message when they are not.
Divergence find_divergence(const HashSeries& a, const HashSeries& b);

/// Passive per-epoch recorder. The owner drives the cadence (Testbed arms
/// a PeriodicTimer that calls record()), which keeps this library free of
/// simulator dependencies.
class EpochHashLog {
 public:
  EpochHashLog(const WorldSnapshotter& world, SnapshotOptions options,
               std::uint64_t seed);

  /// Hashes every component now and appends an entry (dropped once
  /// kMaxEpochs is reached — the bisector needs the prefix, not a ring).
  void record(SimTime now);

  std::size_t epochs() const { return series_.entries.size(); }
  const HashSeries& series() const { return series_; }
  /// Most recent world digest (0 before the first record()).
  std::uint64_t last_world_hash() const;

 private:
  const WorldSnapshotter& world_;
  HashSeries series_;
};

}  // namespace es2
