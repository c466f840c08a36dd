#include "sim/invariant_auditor.h"

#include "base/log.h"
#include "base/strings.h"
#include "trace/trace.h"

namespace es2 {

InvariantAuditor::InvariantAuditor(Simulator& sim, SimDuration period)
    : sim_(sim), timer_(sim, period, [this] { run_now(); }) {}

void InvariantAuditor::add_check(std::string name, Check check) {
  checks_.push_back(Named{std::move(name), std::move(check)});
}

void InvariantAuditor::start() { timer_.start(); }

void InvariantAuditor::stop() { timer_.stop(); }

int InvariantAuditor::run_now() {
  ++sweeps_;
  // When tracing is on, stamp each violation with the journey nearest the
  // sweep so a failed audit points at a concrete kick->EOI path.
  std::uint64_t corr = 0;
  if (const Tracer* tracer = sim_.tracer()) corr = tracer->last_corr();
  int found = 0;
  for (Named& c : checks_) {
    std::optional<std::string> violation = c.check();
    if (!violation.has_value()) continue;
    ++found;
    ++total_violations_;
    if (corr != 0) {
      *violation += format(" [near corr=%llu]",
                           static_cast<unsigned long long>(corr));
    }
    ES2_ERROR(sim_.now(), "invariant violated [%s]: %s", c.name.c_str(),
              violation->c_str());
    if (static_cast<int>(violations_.size()) < kMaxRecorded) {
      std::string context = context_ ? context_() : std::string();
      violations_.push_back(Violation{sim_.now(), c.name,
                                      std::move(*violation), corr,
                                      std::move(context)});
    }
  }
  return found;
}

}  // namespace es2
