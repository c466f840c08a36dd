// Versioned, byte-stable state serialization (es2-snap-v2).
//
// The snapshot layer is the substrate for two robustness features:
// epoch state-hashing (a per-epoch digest of every stateful component,
// recorded as a metrics series) and the divergence bisector (two same-seed
// runs whose epoch hashes differ are localized to the first divergent
// epoch and the guilty component).
//
// Format rules that make snapshots *byte*-stable, not merely
// value-stable:
//
//  * every field is fixed-width little-endian (doubles as IEEE-754 bit
//    patterns), written in a fixed order with no padding;
//  * container fields always write their element count first;
//  * iteration orders are deterministic (never an unordered_map walk);
//  * the file is framed into named sections — one per component — so a
//    reader can skip unknown sections and a hasher can digest each
//    component independently;
//  * a section always carries all of its component's state, whatever
//    modes the run arms: a mode adds sections only for components that
//    exist only in that mode (fault injector, recovery ledger).
//
// A reader rejects any version but its own.
//
// Pending simulator events are NOT serialized: callbacks capture arbitrary
// closures. Restore instead re-executes deterministically — a world
// rebuilt from the same options and driven to the same sim time passes
// through bit-identical state (the scenario construction is the replayable
// intent log), which the recorded section hashes verify. See DESIGN.md
// §4f.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"

namespace es2 {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// FNV-1a 64 over a byte range.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

class SnapshotWriter;

/// Implemented by every stateful component. `snapshot_state` must be a
/// pure read: no RNG draws, no scheduled events, no model mutation — the
/// epoch hasher calls it mid-run and a hashed run must stay bit-identical
/// to an unhashed one.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void snapshot_state(SnapshotWriter& w) const = 0;
};

/// Accumulates named sections of fixed-width little-endian fields.
class SnapshotWriter {
 public:
  static constexpr char kMagic[8] = {'e', 's', '2', 's', 'n', 'a', 'p', '1'};
  static constexpr std::uint32_t kVersion = 2;

  struct Section {
    std::string name;
    std::size_t offset = 0;  // payload start in buf_
    std::size_t size = 0;    // payload length once closed; see section_size
  };

  /// Opens a named section; fields written until the next begin_section
  /// (or serialize) belong to it.
  void begin_section(std::string_view name);

  // --- typed fields (all little-endian, no padding) -----------------------
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern: exact, not a decimal round-trip.
  void put_f64(double v);
  /// Length-prefixed UTF-8 bytes.
  void put_string(std::string_view s);

  const std::vector<Section>& sections() const { return sections_; }

  /// Payload length of section `i`, including the still-open last one.
  std::size_t section_size(std::size_t i) const;

  /// FNV-1a digest of section `i`'s payload bytes.
  std::uint64_t section_hash(std::size_t i) const;

  /// Digest over all sections: H(name, payload) folded in order. Two
  /// worlds with identical component states produce identical hashes.
  std::uint64_t world_hash() const;

  /// Full es2-snap-v2 file image: magic, version, section table + payloads,
  /// trailing FNV-1a checksum of everything before it.
  std::string serialize() const;

  /// Resets to empty (reusable scratch writer for hashing).
  void clear();

  std::size_t byte_size() const { return buf_.size(); }

 private:
  void close_section();

  std::vector<std::uint8_t> buf_;
  std::vector<Section> sections_;
  bool section_open_ = false;
};

/// Reads an es2-snap-v2 image produced by SnapshotWriter::serialize().
/// Fields must be read back in the order they were written; any
/// out-of-bounds read or type underflow poisons the reader (`ok()` goes
/// false and further reads return zeros) instead of crashing.
class SnapshotReader {
 public:
  /// Parses and checksums `bytes`. On failure returns false and, when
  /// `error` is non-null, explains why (bad magic, version, truncation,
  /// checksum mismatch).
  bool load(std::string bytes, std::string* error = nullptr);

  std::size_t section_count() const { return sections_.size(); }
  const std::string& section_name(std::size_t i) const {
    return sections_[i].name;
  }
  std::uint64_t section_hash(std::size_t i) const;
  std::uint64_t world_hash() const;

  /// Positions the field cursor at the start of the named section.
  /// Returns false (without poisoning) when the section is absent.
  bool seek(std::string_view name);

  // --- typed fields (mirror the writer) ------------------------------------
  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_string();

  /// True while every read so far stayed inside the current section.
  bool ok() const { return ok_; }

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  bool take(std::size_t n, const std::uint8_t** out);

  std::string bytes_;
  std::vector<Section> sections_;
  std::size_t cursor_ = 0;      // absolute offset into bytes_
  std::size_t section_end_ = 0;  // absolute end of the seeked section
  bool ok_ = false;
};

/// Writes an Rng stream's four raw xoshiro256++ state words.
inline void snapshot_rng(SnapshotWriter& w, const Rng& rng) {
  const Rng::State st = rng.state();
  for (int i = 0; i < 4; ++i) w.put_u64(st.s[i]);
}

}  // namespace es2
