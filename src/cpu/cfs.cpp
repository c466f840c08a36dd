#include "cpu/cfs.h"

#include <algorithm>
#include <limits>

#include "base/assert.h"
#include "base/strings.h"
#include "metrics/metrics.h"
#include "profile/profiler.h"

namespace es2 {

Core::Core(CfsScheduler& sched, int id) : sched_(sched), id_(id) {}

int Core::nr_running() const {
  return static_cast<int>(rq_.size()) + (current_ ? 1 : 0);
}

std::int64_t Core::load() const {
  std::int64_t total = current_ ? current_->weight() : 0;
  for (const SimThread* t : rq_) total += t->weight();
  return total;
}

CfsScheduler::CfsScheduler(Simulator& sim, int num_cores, CfsParams params)
    : sim_(sim), params_(params), rng_(sim.make_rng("cfs")) {
  ES2_CHECK(num_cores > 0);
  cores_.reserve(static_cast<size_t>(num_cores));
  for (int i = 0; i < num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(*this, i));
    cores_.back()->busy_.set(sim_.now(), 0.0);
  }
}

Core& CfsScheduler::core(int i) {
  ES2_CHECK(i >= 0 && i < num_cores());
  return *cores_[static_cast<size_t>(i)];
}

std::uint64_t CfsScheduler::context_switches() const {
  std::uint64_t total = 0;
  for (const auto& c : cores_) total += c->context_switches_;
  return total;
}

void CfsScheduler::register_metrics(MetricsRegistry& registry) {
  for (auto& core : cores_) {
    Core* c = core.get();
    MetricLabels labels = {{"core", format("%d", c->id_)}};
    registry.probe("cfs.context_switches", labels, [c] {
      return static_cast<double>(c->context_switches_);
    });
    registry.probe("cfs.preemptions", labels, [c] {
      return static_cast<double>(c->preemptions_);
    });
    registry.probe("cfs.nr_running", labels, [c] {
      return static_cast<double>(c->nr_running());
    });
    registry.probe("cfs.load", labels, [c] {
      return static_cast<double>(c->load());
    });
  }
}

void CfsScheduler::add(SimThread& thread, int pinned_core) {
  ES2_CHECK_MSG(thread.sched_ == nullptr, "thread already registered");
  ES2_CHECK(pinned_core >= -1 && pinned_core < num_cores());
  thread.sched_ = this;
  thread.pinned_core_ = pinned_core;
  thread.state_ = SimThread::State::kBlocked;
  ++registered_;
  for (auto& c : cores_) {
    if (c->rq_.capacity() < registered_) c->rq_.reserve(2 * registered_);
  }
}

Core& CfsScheduler::pick_core_for(SimThread& thread) {
  if (thread.pinned_core_ >= 0) return core(thread.pinned_core_);
  Core* best = cores_[0].get();
  std::int64_t best_load = best->load();
  for (auto& c : cores_) {
    const std::int64_t load = c->load();
    if (load < best_load) {
      best = c.get();
      best_load = load;
    }
  }
  return *best;
}

void CfsScheduler::on_wake(SimThread& thread) {
  ES2_CHECK(thread.state_ == SimThread::State::kBlocked);
  Core& target = pick_core_for(thread);
  thread.state_ = SimThread::State::kRunnable;
  enqueue(target, thread, /*wakeup=*/true);
  check_wakeup_preemption(target, thread);
  // Even without wakeup preemption, the newcomer must get its turn when the
  // running thread's slice ends.
  if (target.current_ != nullptr && !target.slice_timer_.pending()) {
    arm_slice_timer(target);
  }
}

void CfsScheduler::on_block(SimThread& thread) {
  if (thread.state_ == SimThread::State::kRunning) {
    Core* c = thread.core_;
    ES2_CHECK(c != nullptr && c->current_ == &thread);
    account_current(*c);
    thread.sched_out();
    thread.state_ = SimThread::State::kBlocked;
    c->current_ = nullptr;
    c->busy_.set(sim_.now(), 0.0);
    update_min_vruntime(*c);
    request_resched(*c);
    return;
  }
  ES2_CHECK(thread.state_ == SimThread::State::kRunnable);
  ES2_CHECK(thread.rq_core_ >= 0);
  Core& c = core(thread.rq_core_);
  dequeue(c, thread);
  thread.state_ = SimThread::State::kBlocked;
}

void CfsScheduler::on_finish(SimThread& thread) {
  switch (thread.state_) {
    case SimThread::State::kRunning: {
      Core* c = thread.core_;
      ES2_CHECK(c != nullptr);
      account_current(*c);
      thread.sched_out();
      c->current_ = nullptr;
      c->busy_.set(sim_.now(), 0.0);
      request_resched(*c);
      break;
    }
    case SimThread::State::kRunnable:
      if (thread.rq_core_ >= 0) dequeue(core(thread.rq_core_), thread);
      break;
    case SimThread::State::kBlocked:
    case SimThread::State::kFinished:
      break;
  }
}

void CfsScheduler::enqueue(Core& core, SimThread& thread, bool wakeup) {
  ES2_CHECK(thread.rq_core_ < 0);
  if (wakeup) {
    // Sleeper placement: never further back than min_vruntime minus the
    // (possibly halved) latency bonus, never ahead of its own history.
    const double latency = static_cast<double>(params_.sched_latency);
    const double bonus = params_.gentle_sleepers ? latency / 2.0 : latency;
    thread.vruntime_ = std::max(thread.vruntime_, core.min_vruntime_ - bonus);
  }
  auto& rq = core.rq_;
  rq.insert(std::upper_bound(rq.begin(), rq.end(), &thread, Core::ByVruntime{}),
            &thread);
  thread.rq_core_ = core.id_;
  update_min_vruntime(core);
}

void CfsScheduler::dequeue(Core& core, SimThread& thread) {
  auto& rq = core.rq_;
  const auto it =
      std::lower_bound(rq.begin(), rq.end(), &thread, Core::ByVruntime{});
  ES2_CHECK_MSG(it != rq.end() && *it == &thread,
                "thread not on expected runqueue");
  rq.erase(it);
  thread.rq_core_ = -1;
  update_min_vruntime(core);
}

void CfsScheduler::account_current(Core& core) {
  SimThread* t = core.current_;
  if (t == nullptr) return;
  const SimDuration elapsed = sim_.now() - t->last_ran_start_;
  if (elapsed > 0) {
    t->cpu_time_ += elapsed;
    t->vruntime_ += static_cast<double>(elapsed) *
                    static_cast<double>(kWeightNice0) /
                    static_cast<double>(t->weight_);
    t->last_ran_start_ = sim_.now();
    update_min_vruntime(core);
  }
}

void CfsScheduler::update_min_vruntime(Core& core) {
  double candidate = std::numeric_limits<double>::infinity();
  if (core.current_ != nullptr) candidate = core.current_->vruntime_;
  if (!core.rq_.empty()) {
    candidate = std::min(candidate, core.rq_.front()->vruntime_);
  }
  if (candidate != std::numeric_limits<double>::infinity()) {
    core.min_vruntime_ = std::max(core.min_vruntime_, candidate);
  }
}

SimDuration CfsScheduler::timeslice(const Core& core) const {
  const int n = std::max(core.nr_running(), 1);
  return std::max(params_.sched_latency / n, params_.min_granularity);
}

void CfsScheduler::arm_slice_timer(Core& core) {
  core.slice_timer_.cancel();
  if (core.current_ == nullptr || core.rq_.empty()) return;  // nothing to rotate
  SimDuration slice = timeslice(core);
  if (params_.slice_jitter > 0) {
    const double f =
        1.0 + params_.slice_jitter * (2.0 * rng_.next_double() - 1.0);
    slice = std::max<SimDuration>(
        params_.min_granularity,
        static_cast<SimDuration>(static_cast<double>(slice) * f));
  }
  Core* cp = &core;
  core.slice_timer_ = sim_.after(slice, [this, cp] { do_resched(*cp); });
}

void CfsScheduler::request_resched(Core& core) {
  if (core.resched_pending_) return;
  core.resched_pending_ = true;
  Core* cp = &core;
  sim_.defer([this, cp] {
    if (!cp->resched_pending_) return;
    do_resched(*cp);
  });
}

void CfsScheduler::check_wakeup_preemption(Core& core, SimThread& woken) {
  if (core.current_ == nullptr) {
    request_resched(core);
    return;
  }
  account_current(core);
  const double gran = static_cast<double>(params_.wakeup_granularity);
  if (woken.vruntime_ + gran < core.current_->vruntime_) {
    ++core.preemptions_;
    request_resched(core);
  }
}

void CfsScheduler::do_resched(Core& core) {
  Profiler::Scope prof_scope(sim_.profiler(), ProfComp::kCfsResched);
  core.resched_pending_ = false;
  core.slice_timer_.cancel();
  account_current(core);

  SimThread* best =
      core.rq_.empty() ? nullptr : core.rq_.front();
  SimThread* current = core.current_;
  if (current != nullptr &&
      (best == nullptr || !Core::ByVruntime{}(best, current))) {
    // Current thread keeps the CPU.
    arm_slice_timer(core);
    return;
  }
  if (current != nullptr) {
    current->sched_out();
    core.current_ = nullptr;
    enqueue(core, *current, /*wakeup=*/false);
  }
  if (best != nullptr) {
    dequeue(core, *best);
    core.current_ = best;
    ++core.context_switches_;
    core.busy_.set(sim_.now(), 1.0);
    best->sched_in(core);
    // sched_in may have synchronously blocked the thread via its main body.
    if (core.current_ == best) arm_slice_timer(core);
  } else {
    core.busy_.set(sim_.now(), 0.0);
  }
  update_min_vruntime(core);
}

void CfsScheduler::snapshot_state(SnapshotWriter& w) const {
  snapshot_rng(w, rng_);
  w.put_u32(static_cast<std::uint32_t>(cores_.size()));
  for (const auto& core : cores_) {
    // Threads are identified by their world-local name, not SimThread::id():
    // ids come from a process-global counter, so two same-seed worlds in one
    // process would serialize different bytes for identical states.
    w.put_string(core->current_ != nullptr ? core->current_->name() : "");
    w.put_f64(core->min_vruntime_);
    w.put_bool(core->resched_pending_);
    w.put_u64(core->context_switches_);
    w.put_u64(core->preemptions_);
    w.put_u32(static_cast<std::uint32_t>(core->rq_.size()));
    for (const SimThread* t : core->rq_) {
      w.put_string(t->name());
      t->snapshot_state(w);
    }
  }
}

}  // namespace es2
