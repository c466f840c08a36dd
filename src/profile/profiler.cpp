#include "profile/profiler.h"

namespace es2 {

const char* prof_comp_name(ProfComp c) {
  switch (c) {
    case ProfComp::kVhostTurnTx:
      return "vhost_turn_tx";
    case ProfComp::kVhostTurnRx:
      return "vhost_turn_rx";
    case ProfComp::kGuestNapi:
      return "guest_napi";
    case ProfComp::kGuestIrqService:
      return "guest_irq_service";
    case ProfComp::kCount:
      break;
  }
  return "?";
}

Profiler::Profiler(ProfileOptions options)
    : ring_capacity_(options.slice_capacity) {
  span_slots_.resize(kProfComps * kMaxKeys);
  ring_.reserve(ring_capacity_);
}

void Profiler::span_begin(ProfComp comp, unsigned key, SimTime now) {
  if (key >= kMaxKeys) key = kMaxKeys - 1;
  SpanSlot& slot =
      span_slots_[static_cast<std::size_t>(comp) * kMaxKeys + key];
  if (slot.open >= 0) {
    ++dropped_;
    return;
  }
  slot.open = now;
}

void Profiler::span_end(ProfComp comp, unsigned key, SimTime now) {
  if (key >= kMaxKeys) key = kMaxKeys - 1;
  SpanSlot& slot =
      span_slots_[static_cast<std::size_t>(comp) * kMaxKeys + key];
  if (slot.open < 0) {
    ++dropped_;
    return;
  }
  ++slot.count;
  slot.sim_ns += now - slot.open;
  if (ring_capacity_ > 0) {
    ProfSlice slice;
    slice.begin = slot.open;
    slice.end = now;
    slice.comp = comp;
    slice.key = static_cast<std::uint16_t>(key);
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(slice);
    } else {
      ring_[slices_total_ % ring_capacity_] = slice;
    }
    ++slices_total_;
  }
  slot.open = -1;
}

ProfileData Profiler::data() const {
  ProfileData out;
  for (std::size_t c = 0; c < kProfComps; ++c) {
    for (std::size_t k = 0; k < kMaxKeys; ++k) {
      const SpanSlot& slot = span_slots_[c * kMaxKeys + k];
      if (slot.count == 0) continue;
      ProfSpanStat stat;
      stat.comp = static_cast<ProfComp>(c);
      stat.key = static_cast<std::uint16_t>(k);
      stat.count = slot.count;
      stat.sim_ns = slot.sim_ns;
      out.spans.push_back(stat);
    }
  }
  out.slices.reserve(ring_.size());
  if (slices_total_ > ring_.size()) {
    // The ring wrapped: oldest surviving slice sits at the write cursor.
    const std::size_t cursor = slices_total_ % ring_capacity_;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.slices.push_back(ring_[(cursor + i) % ring_.size()]);
    }
  } else {
    out.slices = ring_;
  }
  out.slices_total = slices_total_;
  out.dropped = dropped_;
  return out;
}

}  // namespace es2
