#include "profile/blame.h"

#include <algorithm>
#include <unordered_map>

#include "base/strings.h"

namespace es2 {

namespace {

/// The vhost worker thread whose kSchedIn records (matched via
/// `trace_thread_tag`, the tag the sched tracepoints carry in `arg`) mark
/// "the worker went on-core". The canonical testbed has one.
constexpr const char* kWorkerThread = "vhost-vm0";
/// vCPU threads are named "<vm>/vcpu<j>"; tags are derived for
/// vm0..vm{kMaxVms-1} x vcpu0..vcpu{kMaxVcpus-1}.
constexpr int kMaxVms = 8;
constexpr int kMaxVcpus = 16;
/// Worst-journey ledger length: the worst journeys at or beyond p99.
constexpr std::size_t kLedgerTopN = 8;

/// First value in sorted `v` within [lo, hi], or -1.
SimTime first_in(const std::vector<SimTime>& v, SimTime lo, SimTime hi) {
  auto it = std::lower_bound(v.begin(), v.end(), lo);
  if (it == v.end() || *it > hi) return -1;
  return *it;
}

}  // namespace

const char* blame_component_name(BlameComponent c) {
  switch (c) {
    case BlameComponent::kNotifyWake:
      return "notify_wake";
    case BlameComponent::kSchedDelay:
      return "sched_delay";
    case BlameComponent::kQueueWait:
      return "queue_wait";
    case BlameComponent::kBackendService:
      return "backend_service";
    case BlameComponent::kSuppression:
      return "suppression";
    case BlameComponent::kVcpuWait:
      return "vcpu_wait";
    case BlameComponent::kMsiDelivery:
      return "msi_delivery";
    case BlameComponent::kGuestService:
      return "guest_service";
    case BlameComponent::kCount:
      break;
  }
  return "?";
}

bool blame_component_is_wait(BlameComponent c) {
  switch (c) {
    case BlameComponent::kNotifyWake:
    case BlameComponent::kSchedDelay:
    case BlameComponent::kQueueWait:
    case BlameComponent::kSuppression:
    case BlameComponent::kVcpuWait:
      return true;
    default:
      return false;
  }
}

double BlameBreakdown::fraction(BlameComponent c) const {
  if (total_ns <= 0) return 0;
  return static_cast<double>(component_ns[static_cast<std::size_t>(c)]) /
         static_cast<double>(total_ns);
}

BlameBreakdown analyze_blame(const std::vector<TraceRecord>& records,
                             const std::vector<JourneySpan>& journeys) {
  // The journeys' landmarks come from the span builder; this pass adds the
  // global time series the attribution cuts against (worker wakes, worker
  // sched-ins, handler turns, per-vcpu sched-ins). Records arrive
  // oldest-first from Tracer::snapshot(), so the series come out sorted;
  // sort defensively anyway.

  const std::uint32_t worker_tag = trace_thread_tag(kWorkerThread);
  std::unordered_map<std::uint32_t, int> vcpu_tags;  // tag -> vm*max+vcpu
  for (int vm = 0; vm < kMaxVms; ++vm) {
    for (int vcpu = 0; vcpu < kMaxVcpus; ++vcpu) {
      const std::string name = format("vm%d/vcpu%d", vm, vcpu);
      vcpu_tags.emplace(trace_thread_tag(name), vm * kMaxVcpus + vcpu);
    }
  }

  std::vector<SimTime> wakes;
  std::vector<SimTime> worker_sched_in;
  std::vector<SimTime> turns;
  std::unordered_map<int, std::vector<SimTime>> vcpu_sched_in;

  for (const TraceRecord& r : records) {
    if (r.kind == TraceKind::kWorkerTurn) {
      turns.push_back(r.t);
    } else if (r.kind == TraceKind::kWorkerWake) {
      wakes.push_back(r.t);
    } else if (r.kind == TraceKind::kSchedIn) {
      if (r.arg == worker_tag) {
        worker_sched_in.push_back(r.t);
      } else if (auto it = vcpu_tags.find(r.arg); it != vcpu_tags.end()) {
        vcpu_sched_in[it->second].push_back(r.t);
      }
    }
  }
  std::sort(wakes.begin(), wakes.end());
  std::sort(worker_sched_in.begin(), worker_sched_in.end());
  std::sort(turns.begin(), turns.end());
  for (auto& [slot, v] : vcpu_sched_in) std::sort(v.begin(), v.end());

  // Attribute every complete, monotone journey by cutting [kick, eoi] at
  // the landmark and sched/wake times. Cuts are clamped monotone, so
  // segment sums are exact by construction.
  BlameBreakdown out;
  out.journeys = static_cast<std::int64_t>(journeys.size());
  std::vector<JourneyBlame> attributed;
  attributed.reserve(journeys.size());
  std::unordered_map<std::uint32_t, std::size_t> group_index;

  for (const JourneySpan& j : journeys) {
    // Journeys without an I/O origin are intentionally skipped: timer and
    // IPI deliveries mint their own corr at the router, so they show up
    // here with post/dispatch/eoi but no kick/wire_rx — they are not part
    // of the virtual-I/O event path this breakdown budgets.
    if (j.kick < 0 || j.msi < 0 || j.dispatch < 0 || j.eoi < 0) continue;
    // Coalesced journeys usually carry no worker-turn record of their own:
    // the turn is tagged with the kick corr that woke the handler, while
    // the interrupt's corr is the latest arrival it covers. The servicing
    // turn is then the latest turn at or before the MSI — clamped to the
    // origin for packets that arrived mid-turn.
    SimTime backend = j.backend;
    if (backend < j.kick || backend > j.msi) {
      backend = -1;
      auto it = std::upper_bound(turns.begin(), turns.end(), j.msi);
      if (it != turns.begin()) {
        backend = std::max(*(it - 1), j.kick);
      }
    }
    if (backend < 0) continue;
    if (j.msi < backend || j.dispatch < j.msi || j.eoi < j.dispatch) {
      continue;  // coalesced landmark order; not attributable
    }
    JourneyBlame b;
    b.corr = j.corr;
    b.vm = j.vm;
    b.vcpu = j.vcpu;
    b.queue = j.queue;
    b.tx_origin = j.tx_origin;
    b.start = j.kick;
    b.eoi = j.eoi;

    // origin -> backend turn: wake, then on-core, then the handler's turn.
    const SimTime wake = first_in(wakes, j.kick, backend);
    SimTime cut = j.kick;
    const SimTime wake_cut = wake >= 0 ? wake : cut;
    b.ns[static_cast<std::size_t>(BlameComponent::kNotifyWake)] =
        wake_cut - cut;
    cut = wake_cut;
    const SimTime sched =
        wake >= 0 ? first_in(worker_sched_in, cut, backend) : -1;
    const SimTime sched_cut = sched >= 0 ? sched : cut;
    b.ns[static_cast<std::size_t>(BlameComponent::kSchedDelay)] =
        sched_cut - cut;
    cut = sched_cut;
    b.ns[static_cast<std::size_t>(BlameComponent::kQueueWait)] =
        backend - cut;

    // backend turn -> msi: service until the suppression decision (if the
    // journey had one), then the EVENT_IDX window until the raise.
    const SimTime supp =
        (j.suppressed >= backend && j.suppressed <= j.msi) ? j.suppressed
                                                             : j.msi;
    b.ns[static_cast<std::size_t>(BlameComponent::kBackendService)] =
        supp - backend;
    b.ns[static_cast<std::size_t>(BlameComponent::kSuppression)] =
        j.msi - supp;

    // msi -> dispatch: wait for the destination vcpu to go on-core, then
    // route + inject.
    SimTime vcpu_on = -1;
    if (j.vm >= 0 && j.vcpu >= 0) {
      auto it = vcpu_sched_in.find(j.vm * kMaxVcpus + j.vcpu);
      if (it != vcpu_sched_in.end()) {
        vcpu_on = first_in(it->second, j.msi, j.dispatch);
      }
    }
    const SimTime vcpu_cut = vcpu_on >= 0 ? vcpu_on : j.msi;
    b.ns[static_cast<std::size_t>(BlameComponent::kVcpuWait)] =
        vcpu_cut - j.msi;
    b.ns[static_cast<std::size_t>(BlameComponent::kMsiDelivery)] =
        j.dispatch - vcpu_cut;

    b.ns[static_cast<std::size_t>(BlameComponent::kGuestService)] =
        j.eoi - j.dispatch;

    ++out.complete;
    const SimDuration total = b.total();
    out.total_ns += total;
    out.end_to_end.record(total);
    for (std::size_t c = 0; c < kBlameComponents; ++c) {
      out.component_ns[c] += b.ns[c];
      out.component_hist[c].record(b.ns[c]);
    }

    const std::uint32_t gkey =
        (static_cast<std::uint32_t>(static_cast<std::uint8_t>(b.vm)) << 16) |
        static_cast<std::uint16_t>(b.queue);
    auto [git, ginserted] = group_index.try_emplace(gkey, out.groups.size());
    if (ginserted) {
      out.groups.emplace_back();
      out.groups.back().vm = b.vm;
      out.groups.back().queue = b.queue;
    }
    BlameGroup& g = out.groups[git->second];
    ++g.journeys;
    g.total += total;
    for (std::size_t c = 0; c < kBlameComponents; ++c) g.ns[c] += b.ns[c];

    attributed.push_back(b);
  }

  std::sort(out.groups.begin(), out.groups.end(),
            [](const BlameGroup& a, const BlameGroup& b) {
              if (a.vm != b.vm) return a.vm < b.vm;
              return a.queue < b.queue;
            });

  // Worst-journey ledger: everything at or beyond p99, worst first.
  out.ledger_threshold = out.end_to_end.p99();
  std::vector<JourneyBlame> worst;
  for (const JourneyBlame& b : attributed) {
    if (b.total() >= out.ledger_threshold) worst.push_back(b);
  }
  std::sort(worst.begin(), worst.end(),
            [](const JourneyBlame& a, const JourneyBlame& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.corr < b.corr;
            });
  if (worst.size() > kLedgerTopN) worst.resize(kLedgerTopN);
  out.worst = std::move(worst);
  return out;
}

std::string blame_critical_path(const JourneyBlame& j) {
  std::string out = format("corr=%llu vm=%d q=%d %s total=%lldns:",
                           static_cast<unsigned long long>(j.corr),
                           static_cast<int>(j.vm), static_cast<int>(j.queue),
                           j.tx_origin ? "tx" : "rx",
                           static_cast<long long>(j.total()));
  for (std::size_t c = 0; c < kBlameComponents; ++c) {
    out += format(" %s=%lld",
                  blame_component_name(static_cast<BlameComponent>(c)),
                  static_cast<long long>(j.ns[c]));
  }
  return out;
}

}  // namespace es2
