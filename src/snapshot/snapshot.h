// Component state hashing: the substrate of the epoch-hash determinism
// oracle.
//
// Every stateful component writes its state as a sequence of typed fields
// into a SnapshotWriter, which folds each field's bytes straight into a
// running FNV-1a-64 digest and counts them; nothing is buffered. Epoch
// state-hashing records one digest per component per epoch, and the
// divergence bisector localizes two same-seed runs whose digests differ
// to the first divergent epoch and the guilty component.
//
// Rules that make the digest a function of the state, not of the host:
//
//  * every field is fixed-width little-endian (doubles as IEEE-754 bit
//    patterns), written in a fixed order with no padding;
//  * container fields always write their element count first;
//  * iteration orders are deterministic (never an unordered_map walk);
//  * a component always writes all of its state, whatever modes the run
//    arms: a mode adds components only where they exist only in that mode
//    (fault injector, recovery ledger).
//
// Nothing is ever read back. Restore is by re-execution: a world rebuilt
// from the same options and driven to the same sim time passes through
// bit-identical state (the scenario construction is the replayable intent
// log), which the recorded digests verify. See DESIGN.md §4f.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

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

/// Streaming FNV-1a-64 hasher for one component's fields. The digest
/// equals `fnv1a` over the concatenated little-endian field bytes.
class SnapshotWriter {
 public:
  // --- typed fields (all little-endian, no padding) -----------------------
  void put_u8(std::uint8_t v) {
    hash_ = (hash_ ^ v) * kFnvPrime;
    ++bytes_;
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern: exact, not a decimal round-trip.
  void put_f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }
  /// Length-prefixed UTF-8 bytes.
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    for (char c : s) put_u8(static_cast<std::uint8_t>(c));
  }

  /// FNV-1a digest of every byte put so far.
  std::uint64_t hash() const { return hash_; }
  /// Number of bytes put so far.
  std::size_t byte_size() const { return bytes_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
  std::size_t bytes_ = 0;
};

/// Writes an Rng stream's four raw xoshiro256++ state words.
inline void snapshot_rng(SnapshotWriter& w, const Rng& rng) {
  const Rng::State st = rng.state();
  for (int i = 0; i < 4; ++i) w.put_u64(st.s[i]);
}

}  // namespace es2
