#include "snapshot/snapshot.h"

#include <cstring>

#include "base/strings.h"

namespace es2 {

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

void SnapshotWriter::begin_section(std::string_view name) {
  close_section();
  Section s;
  s.name.assign(name.data(), name.size());
  s.offset = buf_.size();
  sections_.push_back(std::move(s));
  section_open_ = true;
}

void SnapshotWriter::close_section() {
  if (!section_open_) return;
  sections_.back().size = buf_.size() - sections_.back().offset;
  section_open_ = false;
}

void SnapshotWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::put_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void SnapshotWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::size_t SnapshotWriter::section_size(std::size_t i) const {
  const Section& s = sections_[i];
  return section_open_ && i + 1 == sections_.size() ? buf_.size() - s.offset
                                                    : s.size;
}

std::uint64_t SnapshotWriter::section_hash(std::size_t i) const {
  return fnv1a(buf_.data() + sections_[i].offset, section_size(i));
}

std::uint64_t SnapshotWriter::world_hash() const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    h = fnv1a(s.name.data(), s.name.size(), h);
    const std::uint64_t sh = section_hash(i);
    h = fnv1a(&sh, sizeof(sh), h);
  }
  return h;
}

std::string SnapshotWriter::serialize() const {
  // Close the trailing section size without mutating state: compute it.
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  auto append_u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  auto append_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  append_u32(kVersion);
  append_u32(static_cast<std::uint32_t>(sections_.size()));
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    const std::size_t size = section_size(i);
    append_u32(static_cast<std::uint32_t>(s.name.size()));
    out.append(s.name);
    append_u64(size);
    out.append(reinterpret_cast<const char*>(buf_.data()) + s.offset, size);
  }
  append_u64(fnv1a(out.data(), out.size()));
  return out;
}

void SnapshotWriter::clear() {
  buf_.clear();
  sections_.clear();
  section_open_ = false;
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

namespace {

bool read_u32_at(const std::string& b, std::size_t* pos, std::uint32_t* out) {
  if (*pos + 4 > b.size()) return false;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[*pos + static_cast<std::size_t>(i)])) << (8 * i);
  *pos += 4;
  *out = v;
  return true;
}

bool read_u64_at(const std::string& b, std::size_t* pos, std::uint64_t* out) {
  if (*pos + 8 > b.size()) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b[*pos + static_cast<std::size_t>(i)])) << (8 * i);
  *pos += 8;
  *out = v;
  return true;
}

}  // namespace

bool SnapshotReader::load(std::string bytes, std::string* error) {
  auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  bytes_ = std::move(bytes);
  sections_.clear();
  ok_ = false;
  if (bytes_.size() < sizeof(SnapshotWriter::kMagic) + 4 + 4 + 8)
    return fail("truncated: shorter than header + checksum");
  if (std::memcmp(bytes_.data(), SnapshotWriter::kMagic,
                  sizeof(SnapshotWriter::kMagic)) != 0)
    return fail("bad magic: not an es2-snap file");
  // Trailing checksum covers everything before it.
  const std::size_t body = bytes_.size() - 8;
  std::size_t cpos = body;
  std::uint64_t stored = 0;
  read_u64_at(bytes_, &cpos, &stored);
  if (stored != fnv1a(bytes_.data(), body))
    return fail("checksum mismatch: snapshot corrupted");
  std::size_t pos = sizeof(SnapshotWriter::kMagic);
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  if (!read_u32_at(bytes_, &pos, &version)) return fail("truncated header");
  if (version != SnapshotWriter::kVersion) return fail("unsupported version");
  if (!read_u32_at(bytes_, &pos, &count)) return fail("truncated header");
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    if (!read_u32_at(bytes_, &pos, &name_len)) return fail("truncated section");
    if (pos + name_len > body) return fail("truncated section name");
    Section s;
    s.name.assign(bytes_.data() + pos, name_len);
    pos += name_len;
    std::uint64_t size = 0;
    if (!read_u64_at(bytes_, &pos, &size)) return fail("truncated section");
    if (pos + size > body) return fail("truncated section payload");
    s.offset = pos;
    s.size = static_cast<std::size_t>(size);
    pos += s.size;
    sections_.push_back(std::move(s));
  }
  if (pos != body) return fail("trailing garbage after sections");
  ok_ = true;
  cursor_ = 0;
  section_end_ = 0;
  return true;
}

std::uint64_t SnapshotReader::section_hash(std::size_t i) const {
  const Section& s = sections_[i];
  return fnv1a(bytes_.data() + s.offset, s.size);
}

std::uint64_t SnapshotReader::world_hash() const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    h = fnv1a(s.name.data(), s.name.size(), h);
    const std::uint64_t sh = section_hash(i);
    h = fnv1a(&sh, sizeof(sh), h);
  }
  return h;
}

bool SnapshotReader::seek(std::string_view name) {
  for (const Section& s : sections_) {
    if (s.name == name) {
      cursor_ = s.offset;
      section_end_ = s.offset + s.size;
      return true;
    }
  }
  return false;
}

bool SnapshotReader::take(std::size_t n, const std::uint8_t** out) {
  if (!ok_ || cursor_ + n > section_end_) {
    ok_ = false;
    return false;
  }
  *out = reinterpret_cast<const std::uint8_t*>(bytes_.data()) + cursor_;
  cursor_ += n;
  return true;
}

std::uint8_t SnapshotReader::get_u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return p[0];
}

std::uint32_t SnapshotReader::get_u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t SnapshotReader::get_u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double SnapshotReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::get_string() {
  const std::uint32_t len = get_u32();
  const std::uint8_t* p = nullptr;
  if (!take(len, &p)) return std::string();
  return std::string(reinterpret_cast<const char*>(p), len);
}

}  // namespace es2
