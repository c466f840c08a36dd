#include "fault/recovery.h"

#include "metrics/metrics.h"
#include "stats/histogram.h"

namespace es2 {

std::int64_t RecoveryLog::open(LifecycleFault mode, int scope, SimTime now,
                               std::uint64_t corr) {
  FaultInstance inst;
  inst.id = static_cast<std::int64_t>(instances_.size()) + 1;
  inst.mode = mode;
  inst.scope = scope;
  inst.injected_at = now;
  inst.corr = corr != 0 ? corr : static_cast<std::uint64_t>(inst.id);
  instances_.push_back(inst);
  ++open_;
  return inst.id;
}

void RecoveryLog::note_action(RecoveryRung rung, int scope) {
  ++actions_[static_cast<std::size_t>(rung)];
  if (open_ == 0) return;
  for (FaultInstance& inst : instances_) {
    if (inst.recovered() || !scopes_overlap(inst.scope, scope)) continue;
    // Record the highest rung pulled while this instance was open: the
    // ladder escalates monotonically, so the max is what cleared it.
    if (!inst.rung_known || rung > inst.rung) inst.rung = rung;
    inst.rung_known = true;
  }
}

int RecoveryLog::note_progress(int scope, SimTime now) {
  if (open_ == 0) return 0;
  int closed = 0;
  for (FaultInstance& inst : instances_) {
    if (inst.recovered() || !scopes_overlap(inst.scope, scope)) continue;
    inst.recovered_at = now;
    --open_;
    ++closed;
    mttrs_.push_back(inst.mttr());
    Histogram* hist = mttr_hist_[static_cast<std::size_t>(inst.mode)];
    if (hist != nullptr) hist->record(inst.mttr());
  }
  return closed;
}

std::int64_t RecoveryLog::injected(LifecycleFault mode) const {
  std::int64_t n = 0;
  for (const FaultInstance& inst : instances_) {
    if (inst.mode == mode) ++n;
  }
  return n;
}

std::int64_t RecoveryLog::recovered(LifecycleFault mode) const {
  std::int64_t n = 0;
  for (const FaultInstance& inst : instances_) {
    if (inst.mode == mode && inst.recovered()) ++n;
  }
  return n;
}

void RecoveryLog::register_metrics(MetricsRegistry& registry) {
  for (int m = 0; m < static_cast<int>(LifecycleFault::kCount); ++m) {
    const LifecycleFault mode = static_cast<LifecycleFault>(m);
    MetricLabels labels = {{"mode", lifecycle_fault_name(mode)}};
    registry.probe("recovery.injected", labels,
                   [this, mode] { return static_cast<double>(injected(mode)); });
    registry.probe("recovery.recovered", labels, [this, mode] {
      return static_cast<double>(recovered(mode));
    });
    mttr_hist_[static_cast<std::size_t>(mode)] =
        &registry.histogram("recovery.mttr_ns", labels);
  }
  registry.probe("recovery.open",
                 [this] { return static_cast<double>(open_); });
  for (int r = 0; r < static_cast<int>(RecoveryRung::kCount); ++r) {
    const RecoveryRung rung = static_cast<RecoveryRung>(r);
    registry.probe("recovery.actions", {{"rung", recovery_rung_name(rung)}},
                   [this, rung] { return static_cast<double>(actions(rung)); });
  }
}

void RecoveryLog::snapshot_state(SnapshotWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(instances_.size()));
  for (const FaultInstance& inst : instances_) {
    w.put_i64(inst.id);
    w.put_u8(static_cast<std::uint8_t>(inst.mode));
    w.put_u8(static_cast<std::uint8_t>(inst.scope));
    w.put_i64(inst.injected_at);
    w.put_i64(inst.recovered_at);
    w.put_u8(static_cast<std::uint8_t>(inst.rung));
    w.put_bool(inst.rung_known);
    // `corr` is observer output (a trace journey id when traced), not
    // model state: it stays out so tracing leaves the epoch hashes
    // unchanged.
  }
  for (const std::int64_t a : actions_) w.put_i64(a);
}

}  // namespace es2
