// Whole-file I/O, the one read/write pair every artifact, report and CSV
// goes through.
#pragma once

#include <string>

namespace es2 {

/// Reads all of `path` into `out` (binary). Returns false on I/O failure.
bool read_file(const std::string& path, std::string* out);

/// Writes `data` to `path` (binary) atomically: into `<path>.tmp`, then
/// rename(2) over `path`, so a reader or a crash sees the old file or the
/// new one, never a torn one. Returns false, leaving no temp file behind,
/// on I/O failure.
bool write_file(const std::string& path, const std::string& data);

}  // namespace es2
