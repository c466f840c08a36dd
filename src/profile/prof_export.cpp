#include "profile/prof_export.h"

#include <algorithm>

#include "base/strings.h"

namespace es2 {

std::string prof_to_collapsed(const ProfileData& data) {
  std::vector<std::string> lines;
  for (const ProfSpanStat& s : data.spans) {
    if (s.sim_ns <= 0) continue;
    lines.push_back(format("sim;%s;%s:k%u %lld", prof_comp_name(s.comp),
                           prof_comp_name(s.comp), static_cast<unsigned>(s.key),
                           static_cast<long long>(s.sim_ns)));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

Json prof_to_json(const ProfileData& data) {
  Json root = Json::object();
  root.set("schema", Json::string(kProfSchema));
  Json spans = Json::array();
  for (const ProfSpanStat& s : data.spans) {
    Json row = Json::object();
    row.set("comp", Json::string(prof_comp_name(s.comp)));
    row.set("key", Json::number(s.key));
    row.set("count", Json::number(static_cast<double>(s.count)));
    row.set("sim_ns", Json::number(static_cast<double>(s.sim_ns)));
    spans.push_back(std::move(row));
  }
  root.set("spans", std::move(spans));
  root.set("slices_total",
           Json::number(static_cast<double>(data.slices_total)));
  root.set("dropped", Json::number(static_cast<double>(data.dropped)));
  return root;
}

std::string prof_to_json_text(const ProfileData& data) {
  return prof_to_json(data).dump(2) + "\n";
}

std::vector<PerfettoSlice> prof_perfetto_slices(const ProfileData& data) {
  std::vector<PerfettoSlice> out;
  out.reserve(data.slices.size());
  for (const ProfSlice& s : data.slices) {
    PerfettoSlice slice;
    slice.name = format("%s:k%u", prof_comp_name(s.comp),
                        static_cast<unsigned>(s.key));
    slice.track = static_cast<int>(s.comp);
    slice.begin = s.begin;
    slice.end = s.end;
    out.push_back(std::move(slice));
  }
  return out;
}

}  // namespace es2
