// Counters and time-span accumulators.
//
// These are the measurement primitives behind the paper's metrics:
//  * `Counter`      — event counts (VM exits by cause, packets, interrupts);
//  * `SpanAccumulator` — accrues labelled time spans (guest vs host time),
//                     which is exactly how the paper computes TIG.
#pragma once

#include <cstdint>
#include <string>

#include "base/units.h"

namespace es2 {

class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Accrues time spent in named states; `fraction(state)` gives the share of
/// accounted time — used for time-in-guest (TIG).
class SpanAccumulator {
 public:
  void add(SimDuration span, bool in_guest) {
    if (span <= 0) return;
    (in_guest ? guest_ : host_) += span;
  }

  SimDuration guest_time() const { return guest_; }
  SimDuration host_time() const { return host_; }
  SimDuration total() const { return guest_ + host_; }

  /// Time-in-guest percentage over accounted time (0 if nothing accrued).
  double tig_percent() const {
    const SimDuration t = total();
    if (t <= 0) return 0.0;
    return 100.0 * static_cast<double>(guest_) / static_cast<double>(t);
  }

  void reset() { guest_ = host_ = 0; }

 private:
  SimDuration guest_ = 0;
  SimDuration host_ = 0;
};

}  // namespace es2
