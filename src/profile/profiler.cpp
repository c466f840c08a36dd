#include "profile/profiler.h"

namespace es2 {

const char* prof_comp_name(ProfComp c) {
  switch (c) {
    case ProfComp::kVhostTurnTx:
      return "vhost_turn_tx";
    case ProfComp::kVhostTurnRx:
      return "vhost_turn_rx";
    case ProfComp::kVhostWireRx:
      return "vhost_wire_rx";
    case ProfComp::kVhostMsi:
      return "vhost_msi";
    case ProfComp::kGuestNapi:
      return "guest_napi";
    case ProfComp::kGuestIrqService:
      return "guest_irq_service";
    case ProfComp::kVcpuExit:
      return "vcpu_exit";
    case ProfComp::kCfsResched:
      return "cfs_resched";
    case ProfComp::kCount:
      break;
  }
  return "?";
}

Profiler::Profiler(ProfileOptions options)
    : ring_capacity_(options.slice_capacity) {
  span_slots_.resize(kProfComps * kMaxKeys);
  tree_.reserve(kMaxNodes);
  stack_.reserve(kMaxDepth);
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

std::int32_t Profiler::child_of(std::int32_t parent, ProfComp comp) {
  // `tree_` is reserved to kMaxNodes and never grows past it, so the link
  // pointer into it survives the push_back below.
  std::int32_t* link = parent < 0
                           ? &root_first_
                           : &tree_[static_cast<std::size_t>(parent)].first_child;
  while (*link >= 0) {
    TreeNode& n = tree_[static_cast<std::size_t>(*link)];
    if (n.comp == comp) return *link;
    link = &n.next_sibling;
  }
  if (tree_.size() >= kMaxNodes) return -1;
  TreeNode node;
  node.parent = parent;
  node.comp = comp;
  tree_.push_back(node);
  const auto index = static_cast<std::int32_t>(tree_.size() - 1);
  *link = index;
  return index;
}

void Profiler::push(ProfComp comp) {
  if (stack_.size() >= kMaxDepth) {
    // Over-deep nesting: keep pop() balanced without growing the stack.
    ++overflow_depth_;
    ++dropped_;
    return;
  }
  std::int32_t node = -1;
  if (stack_.empty()) {
    node = child_of(-1, comp);
  } else if (stack_.back().node >= 0) {
    node = child_of(stack_.back().node, comp);
  }
  if (node < 0) ++dropped_;
  stack_.push_back(Frame{node, std::chrono::steady_clock::now()});
}

void Profiler::pop() {
  if (overflow_depth_ > 0) {
    --overflow_depth_;
    return;
  }
  if (stack_.empty()) return;
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.node < 0) return;
  TreeNode& node = tree_[static_cast<std::size_t>(frame.node)];
  ++node.calls;
  node.host_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - frame.entered)
                      .count();
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
  out.nodes.reserve(tree_.size());
  for (const TreeNode& n : tree_) {
    ProfNode node;
    node.parent = n.parent;
    node.comp = n.comp;
    node.calls = n.calls;
    node.host_ns = n.host_ns;
    out.nodes.push_back(node);
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
