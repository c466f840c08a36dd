#include "sim/simulator.h"

#include <limits>

#include "base/assert.h"

namespace es2 {

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {}

std::uint64_t Simulator::run_until(SimTime deadline) {
  return run_until_capped(deadline, std::numeric_limits<std::uint64_t>::max());
}

std::uint64_t Simulator::run_until_capped(SimTime deadline,
                                          std::uint64_t max_events) {
  const std::uint64_t executed = queue_.run_until(deadline, max_events, now_);
  // Advance the clock to the deadline even if the queue ran dry, so that
  // back-to-back run_for() calls measure contiguous wall spans. Only a run
  // that genuinely drained the span may claim the deadline as its new
  // clock; a capped stop resumes where it left off.
  if (executed < max_events && now_ < deadline) now_ = deadline;
  events_executed_ += executed;
  return executed;
}

std::uint64_t Simulator::run_to_completion() {
  const std::uint64_t executed =
      queue_.run_until(std::numeric_limits<SimTime>::max(),
                       std::numeric_limits<std::uint64_t>::max(), now_);
  events_executed_ += executed;
  return executed;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, SimDuration period,
                             std::function<void()> fn)
    : sim_(sim),
      period_(period),
      fn_(std::move(fn)),
      pending_(sim.queue().resident<&PeriodicTimer::tick>(this)) {
  ES2_CHECK(period_ > 0);
}

void Simulator::snapshot_state(SnapshotWriter& w) const {
  w.put_i64(now_);
  w.put_u64(seed_);
  w.put_u64(events_executed_);
  w.put_u64(queue_.size());
}

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  running_ = false;
  pending_.cancel();
}

void PeriodicTimer::arm() { pending_.arm(sim_.now() + period_); }

void PeriodicTimer::tick() {
  fn_();
  // A stop(); start() inside fn_ has already armed the next tick.
  if (running_ && !pending_.pending()) arm();
}

}  // namespace es2
