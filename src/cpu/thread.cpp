#include "cpu/thread.h"

#include <atomic>

#include "base/assert.h"
#include "cpu/cfs.h"
#include "stats/meters.h"
#include "trace/trace.h"

namespace es2 {

namespace {
std::atomic<std::uint64_t> g_next_thread_id{1};
}

SimThread::SimThread(Simulator& sim, std::string name, int weight)
    : sim_(sim),
      name_(std::move(name)),
      id_(g_next_thread_id.fetch_add(1, std::memory_order_relaxed)),
      weight_(weight),
      completion_(
          sim.queue().resident<&SimThread::on_segment_complete>(this)) {
  ES2_CHECK_MSG(weight_ > 0, "thread weight must be positive");
}

SimDuration SimThread::cpu_time() const {
  SimDuration t = cpu_time_;
  if (state_ == State::kRunning) t += sim_.now() - last_ran_start_;
  return t;
}

void SimThread::exec(SimDuration duration, Callback<void()> done,
                     SimDuration span, bool in_guest) {
  ES2_CHECK_MSG(state_ != State::kFinished, "exec on finished thread");
  ES2_CHECK_MSG(state_ != State::kBlocked, "exec on blocked thread");
  ES2_CHECK_MSG(!active_, "thread already has an active segment");
  ES2_CHECK_MSG(duration >= 0, "negative segment duration");
  active_.emplace();
  active_->remaining = duration;
  active_->done = std::move(done);
  active_->span = span;
  active_->in_guest = in_guest;
  if (state_ == State::kRunning) arm_segment();
}

std::optional<PausedSegment> SimThread::suspend_active() {
  if (!active_) return std::nullopt;
  freeze_segment();
  PausedSegment paused{active_->remaining, std::move(active_->done),
                       active_->span, active_->in_guest};
  active_.reset();
  return paused;
}

void SimThread::resume_segment(PausedSegment segment) {
  exec(segment.remaining, std::move(segment.done), segment.span,
       segment.in_guest);
}

void SimThread::block() {
  ES2_CHECK_MSG(state_ == State::kRunning || state_ == State::kRunnable,
                "block on a non-runnable thread");
  ES2_CHECK_MSG(!active_, "blocking with an active segment");
  ES2_CHECK(sched_ != nullptr);
  sched_->on_block(*this);
}

void SimThread::wake() {
  if (state_ != State::kBlocked) return;
  ES2_CHECK(sched_ != nullptr);
  sched_->on_wake(*this);
}

void SimThread::finish() {
  if (state_ == State::kFinished) return;
  completion_.cancel();
  active_.reset();
  if (sched_) sched_->on_finish(*this);
  state_ = State::kFinished;
}

void SimThread::arm_segment() {
  ES2_CHECK(active_ && state_ == State::kRunning);
  if (active_->armed) return;
  active_->armed = true;
  active_->armed_at = sim_.now();
  completion_.arm(sim_.now() + active_->remaining);
}

void SimThread::freeze_segment() {
  if (!active_ || !active_->armed) return;
  completion_.cancel();
  const SimDuration ran = sim_.now() - active_->armed_at;
  active_->remaining -= ran;
  if (active_->remaining < 0) active_->remaining = 0;
  active_->armed = false;
}

void SimThread::on_segment_complete() {
  ES2_CHECK(active_ && state_ == State::kRunning);
  auto done = std::move(active_->done);
  if (spans_ != nullptr) spans_->add(active_->span, active_->in_guest);
  active_.reset();
  if (done) done();
  // The callback must have left the thread either blocked, finished, or
  // with follow-up work (a new segment or a main body to fall back to).
  if (state_ == State::kRunning && !active_) {
    ES2_CHECK_MSG(main_ != nullptr,
                  ("thread '" + name_ + "' idle without main body").c_str());
    main_();
    ES2_CHECK_MSG(state_ != State::kRunning || active_,
                  ("thread '" + name_ + "' main left it running idle").c_str());
  }
}

void SimThread::sched_in(Core& core) {
  ES2_CHECK(state_ == State::kRunnable);
  state_ = State::kRunning;
  core_ = &core;
  last_ran_start_ = sim_.now();
  if (Tracer* tr = sim_.tracer()) {
    tr->emit(sim_.now(), TraceKind::kSchedIn, -1, -1, core.id(),
             trace_thread_tag(name_));
  }
  notify(true);
  if (active_) {
    arm_segment();
  } else {
    ES2_CHECK_MSG(main_ != nullptr,
                  ("thread '" + name_ + "' scheduled without work").c_str());
    main_();
    ES2_CHECK_MSG(state_ != State::kRunning || active_,
                  ("thread '" + name_ + "' main left it running idle").c_str());
  }
}

void SimThread::sched_out() {
  ES2_CHECK(state_ == State::kRunning);
  if (Tracer* tr = sim_.tracer()) {
    tr->emit(sim_.now(), TraceKind::kSchedOut, -1, -1,
             core_ != nullptr ? core_->id() : -1,
             trace_thread_tag(name_));
  }
  // CPU-time/vruntime accrual happened in CfsScheduler::account_current.
  freeze_segment();
  state_ = State::kRunnable;
  core_ = nullptr;
  notify(false);
}

void SimThread::notify(bool in) {
  for (const auto& notifier : notifiers_) notifier(*this, in);
}

void SimThread::snapshot_state(SnapshotWriter& w) const {
  w.put_u8(static_cast<std::uint8_t>(state_));
  w.put_u32(static_cast<std::uint32_t>(weight_));
  w.put_f64(vruntime_);
  w.put_i64(cpu_time_);
  w.put_bool(active_.has_value());
  w.put_i64(active_.has_value() ? active_->remaining : 0);
  w.put_bool(active_.has_value() && active_->armed);
}

}  // namespace es2
