#include "harness/checkpoint.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "base/file.h"
#include "base/json.h"
#include "base/strings.h"
#include "snapshot/snapshot.h"

namespace es2 {

namespace fs = std::filesystem;

namespace {
constexpr const char* kSchema = "es2-ckpt-v1";
}  // namespace

std::string CellCheckpoint::to_json_text() const {
  Json doc = Json::object();
  doc.set("schema", Json::string(kSchema));
  doc.set("name", Json::string(report.name));
  doc.set("status", Json::string(to_string(report.status)));
  doc.set("sim_now", Json::number(static_cast<double>(report.sim_now)));
  doc.set("events", Json::number(static_cast<double>(report.events)));
  doc.set("detail", Json::string(report.detail));
  doc.set("telemetry", Json::string(report.telemetry));
  doc.set("attempts", Json::number(report.attempts));
  doc.set("artifact", Json::string(report.artifact));
  return doc.dump(2) + "\n";
}

bool CellCheckpoint::parse(const std::string& text, CellCheckpoint* out,
                           std::string* error) {
  Json doc;
  if (!Json::parse(text, &doc, error)) return false;
  if (!doc.is_object() || doc.string_or("schema", "") != kSchema) {
    *error = "not an es2-ckpt-v1 document";
    return false;
  }
  ScenarioReport& r = out->report;
  r.name = doc.string_or("name", "");
  if (r.name.empty()) {
    *error = "cell has no name";
    return false;
  }
  r.status = scenario_status_from_string(doc.string_or("status", ""));
  r.sim_now = static_cast<SimTime>(doc.number_or("sim_now", 0));
  r.events = static_cast<std::uint64_t>(doc.number_or("events", 0));
  r.detail = doc.string_or("detail", "");
  r.telemetry = doc.string_or("telemetry", "");
  r.attempts = static_cast<int>(doc.number_or("attempts", 1));
  r.artifact = doc.string_or("artifact", "");
  r.resumed = false;
  return true;
}

CheckpointDir::CheckpointDir(std::string dir) : dir_(std::move(dir)) {}

std::string CheckpointDir::sanitize(const std::string& name) {
  std::string stem;
  stem.reserve(name.size());
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    stem += safe ? c : '_';
  }
  // Sanitizing can collide ("a/b" and "a+b" both become "a_b"); a digest
  // of the original name keeps stems unique.
  const std::uint64_t h = fnv1a(name.data(), name.size());
  return stem + format("-%08x", static_cast<unsigned>(h & 0xFFFFFFFFu));
}

std::size_t CheckpointDir::load() {
  cells_.clear();
  if (!enabled()) return 0;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return 0;  // missing directory: nothing to resume
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".json") continue;
    std::string text;
    if (!read_file(entry.path().string(), &text)) continue;
    CellCheckpoint cell;
    std::string error;
    if (!CellCheckpoint::parse(text, &cell, &error)) continue;
    cells_[cell.report.name] = std::move(cell);
  }
  return cells_.size();
}

const CellCheckpoint* CheckpointDir::find(const std::string& name) const {
  const auto it = cells_.find(name);
  return it == cells_.end() ? nullptr : &it->second;
}

bool CheckpointDir::store(const CellCheckpoint& cell, std::string* error) {
  if (!enabled()) return true;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    *error = "cannot create " + dir_;
    return false;
  }
  const std::string path =
      dir_ + "/" + sanitize(cell.report.name) + ".json";
  // write_file lands atomically: a reader sees the old cell or the new
  // one, never a torn file.
  if (!write_file(path, cell.to_json_text())) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace es2
