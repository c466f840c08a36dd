#include "trace/export.h"

#include "base/strings.h"

namespace es2 {

namespace {

/// Trace-event `ts` is microseconds; emit with ns precision.
std::string ts_us(SimTime t) {
  return format("%.3f", static_cast<double>(t) / 1e3);
}

/// pid/tid lanes: pid 0 is the host (vhost worker, wire, scheduler);
/// guests are pid vm+1 with one tid per vcpu.
int lane_pid(const TraceRecord& r) { return r.vm < 0 ? 0 : r.vm + 1; }
int lane_tid(const TraceRecord& r) { return r.vcpu < 0 ? 0 : r.vcpu + 1; }

}  // namespace

std::string to_perfetto_json(const std::vector<TraceRecord>& records,
                             const std::vector<JourneySpan>& spans) {
  std::string out;
  out.reserve(records.size() * 120 + spans.size() * 160 + 64);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const TraceRecord& r : records) {
    if (!first) out += ',';
    first = false;
    out += format(
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,"
        "\"pid\":%d,\"tid\":%d,\"args\":{\"arg\":%u,\"corr\":%llu,"
        "\"cpu\":%d}}",
        trace_kind_name(r.kind), ts_us(r.t).c_str(), lane_pid(r), lane_tid(r),
        static_cast<unsigned>(r.arg),
        static_cast<unsigned long long>(r.corr), static_cast<int>(r.cpu));
  }
  for (const JourneySpan& s : spans) {
    const SimTime start = s.start();
    if (start < 0 || s.eoi < start) continue;  // incomplete: no bar to draw
    const int pid = s.vm < 0 ? 0 : s.vm + 1;
    const unsigned long long id = static_cast<unsigned long long>(s.corr);
    out += format(
        ",{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"b\","
        "\"id\":%llu,\"ts\":%s,\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"corr\":%llu}}",
        id, ts_us(start).c_str(), pid, s.vcpu < 0 ? 0 : s.vcpu + 1, id);
    out += format(
        ",{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"e\","
        "\"id\":%llu,\"ts\":%s,\"pid\":%d,\"tid\":%d}",
        id, ts_us(s.eoi).c_str(), pid, s.vcpu < 0 ? 0 : s.vcpu + 1);
  }
  out += "]}";
  return out;
}

}  // namespace es2
