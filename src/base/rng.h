// Deterministic random number generation for simulations.
//
// Every stochastic component draws from its own `Rng` stream, derived from
// the scenario seed plus a stream label, so adding a new consumer never
// perturbs the draws seen by existing ones (the classic reproducibility
// pitfall with one shared engine).
//
// The engine is xoshiro256++ seeded via splitmix64 — fast, high quality,
// and trivially portable.
#pragma once

#include <cstdint>
#include <string_view>

namespace es2 {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derives an independent stream from a parent seed and a label, so each
  /// component gets its own reproducible sequence.
  static Rng stream(std::uint64_t seed, std::string_view label);

  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// True with probability p in [0, 1].
  bool bernoulli(double p);

  /// Normal variate (Box–Muller), clamped to >= 0 when `nonneg` is set.
  double normal(double mean, double stddev, bool nonneg = true);

  /// Raw engine state, for state hashing (`snapshot_rng`).
  struct State {
    std::uint64_t s[4];
  };
  State state() const;

 private:
  std::uint64_t state_[4];
};

}  // namespace es2
