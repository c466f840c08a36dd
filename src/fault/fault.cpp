#include "fault/fault.h"

#include <algorithm>

#include "base/assert.h"
#include "metrics/metrics.h"

namespace es2 {

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim),
      plan_(plan),
      rng_(sim.make_rng("fault")) {
  ES2_CHECK(plan_.link_loss >= 0 && plan_.link_loss <= 1);
  ES2_CHECK(plan_.kick_loss >= 0 && plan_.kick_loss <= 1);
  ES2_CHECK(plan_.msi_loss >= 0 && plan_.msi_loss <= 1);
}

bool FaultInjector::drop_packet() {
  double p = plan_.link_loss;
  if (plan_.link_burst.enabled()) {
    // Advance the two-state chain once per packet, then add the state's
    // loss probability on top of the i.i.d. floor.
    const GilbertElliott& ge = plan_.link_burst;
    if (burst_bad_) {
      if (rng_.bernoulli(ge.p_bad_to_good)) burst_bad_ = false;
    } else {
      if (rng_.bernoulli(ge.p_good_to_bad)) burst_bad_ = true;
    }
    p = std::min(1.0, p + (burst_bad_ ? ge.loss_bad : ge.loss_good));
  }
  if (p <= 0 || !rng_.bernoulli(p)) return false;
  ++stats_.link_dropped;
  return true;
}

bool FaultInjector::duplicate_packet() {
  if (plan_.link_duplicate <= 0 || !rng_.bernoulli(plan_.link_duplicate)) {
    return false;
  }
  ++stats_.link_duplicated;
  return true;
}

SimDuration FaultInjector::reorder_extra_delay() {
  if (plan_.link_reorder <= 0 || !rng_.bernoulli(plan_.link_reorder)) {
    return 0;
  }
  ++stats_.link_reordered;
  return std::max<SimDuration>(
      1, rng_.uniform(plan_.link_reorder_delay / 2,
                      plan_.link_reorder_delay * 3 / 2));
}

FaultInjector::KickFate FaultInjector::kick_fate() {
  if (plan_.kick_loss > 0 && rng_.bernoulli(plan_.kick_loss)) {
    ++stats_.kicks_dropped;
    return KickFate::kDrop;
  }
  if (plan_.kick_delay_prob > 0 && rng_.bernoulli(plan_.kick_delay_prob)) {
    ++stats_.kicks_delayed;
    return KickFate::kDelay;
  }
  return KickFate::kDeliver;
}

bool FaultInjector::drop_msi() {
  if (plan_.msi_loss <= 0 || !rng_.bernoulli(plan_.msi_loss)) return false;
  ++stats_.msis_dropped;
  return true;
}

SimDuration FaultInjector::worker_stall() {
  if (plan_.worker_stall_prob <= 0 ||
      !rng_.bernoulli(plan_.worker_stall_prob)) {
    return 0;
  }
  ++stats_.worker_stalls;
  return std::max<SimDuration>(
      1, static_cast<SimDuration>(
             rng_.exponential(static_cast<double>(plan_.worker_stall))));
}

void FaultInjector::start_spurious(std::function<void()> fire) {
  ES2_CHECK(plan_.spurious_irq_period > 0);
  spurious_timer_ = std::make_unique<PeriodicTimer>(
      sim_, plan_.spurious_irq_period,
      [this, fire = std::move(fire)] {
        ++stats_.spurious_irqs;
        fire();
      });
  spurious_timer_->start();
}

void FaultInjector::start_lifecycle(LifecycleHooks hooks) {
  ES2_CHECK(plan_.lifecycle_enabled());
  auto arm = [this](SimDuration period, std::int64_t FaultStats::*counter,
                    std::function<void()> fire) {
    if (period <= 0 || !fire) return;
    lifecycle_timers_.push_back(std::make_unique<PeriodicTimer>(
        sim_, period, [this, counter, fire = std::move(fire)] {
          ++(stats_.*counter);
          fire();
        }));
    lifecycle_timers_.back()->start();
  };
  arm(plan_.desc_corrupt_period, &FaultStats::desc_corruptions,
      std::move(hooks.corrupt_ring));
  arm(plan_.avail_tear_period, &FaultStats::avail_tears,
      std::move(hooks.tear_avail));
  arm(plan_.handler_wedge_period, &FaultStats::handler_wedges,
      std::move(hooks.wedge_handler));
  arm(plan_.worker_crash_period, &FaultStats::worker_crashes,
      std::move(hooks.crash_worker));
}

void FaultInjector::stop_lifecycle() {
  for (auto& t : lifecycle_timers_) t->stop();
}

void FaultInjector::register_metrics(MetricsRegistry& registry) {
  registry.probe("fault.link.dropped", {}, [this] {
    return static_cast<double>(stats_.link_dropped);
  });
  registry.probe("fault.link.reordered", {}, [this] {
    return static_cast<double>(stats_.link_reordered);
  });
  registry.probe("fault.link.duplicated", {}, [this] {
    return static_cast<double>(stats_.link_duplicated);
  });
  registry.probe("fault.kicks.dropped", {}, [this] {
    return static_cast<double>(stats_.kicks_dropped);
  });
  registry.probe("fault.kicks.delayed", {}, [this] {
    return static_cast<double>(stats_.kicks_delayed);
  });
  registry.probe("fault.msis.dropped", {}, [this] {
    return static_cast<double>(stats_.msis_dropped);
  });
  registry.probe("fault.worker.stalls", {}, [this] {
    return static_cast<double>(stats_.worker_stalls);
  });
  registry.probe("fault.spurious_irqs", {}, [this] {
    return static_cast<double>(stats_.spurious_irqs);
  });
  registry.probe("fault.desc_corruptions", {}, [this] {
    return static_cast<double>(stats_.desc_corruptions);
  });
  registry.probe("fault.avail_tears", {}, [this] {
    return static_cast<double>(stats_.avail_tears);
  });
  registry.probe("fault.handler_wedges", {}, [this] {
    return static_cast<double>(stats_.handler_wedges);
  });
  registry.probe("fault.worker_crashes", {}, [this] {
    return static_cast<double>(stats_.worker_crashes);
  });
}

void FaultInjector::snapshot_state(SnapshotWriter& w) const {
  snapshot_rng(w, rng_);
  w.put_bool(burst_bad_);
  w.put_i64(stats_.link_dropped);
  w.put_i64(stats_.link_reordered);
  w.put_i64(stats_.link_duplicated);
  w.put_i64(stats_.kicks_dropped);
  w.put_i64(stats_.kicks_delayed);
  w.put_i64(stats_.msis_dropped);
  w.put_i64(stats_.worker_stalls);
  w.put_i64(stats_.spurious_irqs);
  w.put_i64(stats_.desc_corruptions);
  w.put_i64(stats_.avail_tears);
  w.put_i64(stats_.handler_wedges);
  w.put_i64(stats_.worker_crashes);
}

}  // namespace es2
