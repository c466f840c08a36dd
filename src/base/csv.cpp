#include "base/csv.h"

#include <filesystem>

#include "base/assert.h"
#include "base/file.h"

namespace es2 {

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ES2_CHECK(!headers_.empty());
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  ES2_CHECK_MSG(cells.size() == headers_.size(),
                "CSV row width must match header width");
  rows_.push_back(cells);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CsvWriter::render() const {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i) out.push_back(',');
      out += escape(cells[i]);
    }
    out.push_back('\n');
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

bool CsvWriter::write_file(const std::string& path) const {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  return es2::write_file(path, render());
}

}  // namespace es2
