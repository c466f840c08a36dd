#include "trace/export.h"

#include "base/strings.h"

namespace es2 {

// ---------------------------------------------------------------------------
// Perfetto / chrome://tracing JSON
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'E', 'S', '2', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kRecordSize = 24;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::string to_binary(const std::vector<TraceRecord>& records) {
  std::string out;
  out.reserve(kHeaderSize + records.size() * kRecordSize);
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kVersion);
  put_u64(out, static_cast<std::uint64_t>(records.size()));
  for (const TraceRecord& r : records) {
    put_u64(out, static_cast<std::uint64_t>(r.t));
    put_u64(out, r.corr);
    put_u32(out, r.arg);
    out.push_back(static_cast<char>(r.kind));
    out.push_back(static_cast<char>(r.cpu));
    out.push_back(static_cast<char>(r.vm));
    out.push_back(static_cast<char>(r.vcpu));
  }
  return out;
}

bool read_binary(const std::string& data, std::vector<TraceRecord>* out) {
  out->clear();
  if (data.size() < kHeaderSize) return false;
  if (data.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  if (get_u32(data, 4) != kVersion) return false;
  const std::uint64_t count = get_u64(data, 8);
  if (data.size() != kHeaderSize + count * kRecordSize) return false;
  out->reserve(static_cast<std::size_t>(count));
  std::size_t at = kHeaderSize;
  for (std::uint64_t i = 0; i < count; ++i, at += kRecordSize) {
    TraceRecord r;
    r.t = static_cast<SimTime>(get_u64(data, at));
    r.corr = get_u64(data, at + 8);
    r.arg = get_u32(data, at + 16);
    r.kind = static_cast<TraceKind>(static_cast<unsigned char>(data[at + 20]));
    r.cpu = static_cast<std::int8_t>(data[at + 21]);
    r.vm = static_cast<std::int8_t>(data[at + 22]);
    r.vcpu = static_cast<std::int8_t>(data[at + 23]);
    out->push_back(r);
  }
  return true;
}

}  // namespace es2
