// Minimal JSON document model with a strict parser and a deterministic
// serializer.
//
// The repo speaks JSON in BENCH_*.json reports, run artifacts (blame,
// epoch hashes) and trace exports, and reads each of them back. This is a
// small, dependency-free value type: objects preserve insertion order (so
// serialize(parse(x)) is stable), numbers are doubles, and the parser
// rejects trailing garbage. It is not a streaming parser; the largest
// document it reads is a traced run's `trace.json` (tens of MB), so a
// value holds only the payload of its own kind.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace es2 {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool as_bool(bool fallback = false) const;
  double as_number(double fallback = 0.0) const;
  /// Empty unless this is a string.
  const std::string& as_string() const;

  // --- arrays --------------------------------------------------------------
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  void push_back(Json v);

  // --- objects (insertion-ordered) ----------------------------------------
  /// Null when the key is absent (or this is not an object).
  const Json* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Inserts or overwrites `key`.
  void set(std::string key, Json v);
  /// Empty unless this is an object.
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Convenience lookups with fallbacks (object use only).
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  /// Checked integer lookup (object use only): `*out` is member `key` when
  /// it is a whole number T can hold, or `fallback` when the key is absent.
  /// Returns false for any other value (a non-number, a fraction, a
  /// negative number for an unsigned T, or one out of T's range), whose
  /// cast to T would be undefined.
  template <typename T>
  bool integer_or(const std::string& key, T fallback, T* out) const;

  // --- text ----------------------------------------------------------------
  /// Parses `text` (full input must be consumed). Returns false and fills
  /// `error` (position + reason) on malformed input.
  static bool parse(const std::string& text, Json* out, std::string* error);

  /// Deterministic serialization: members in insertion order, numbers via
  /// shortest round-trip formatting, `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Escapes `s` as a JSON string literal (with quotes).
  static std::string escape(const std::string& s);

 private:
  using Array = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  void dump_to(std::string* out, int indent, int depth) const;

  // One payload per value, in `Kind` order (index() is the kind).
  std::variant<std::monostate, bool, double, std::string, Array, Members>
      value_;
};

template <typename T>
bool Json::integer_or(const std::string& key, T fallback, T* out) const {
  static_assert(std::is_integral_v<T>);
  const Json* v = find(key);
  if (v == nullptr) {
    *out = fallback;
    return true;
  }
  if (!v->is_number()) return false;
  const double d = v->as_number();
  // T's range as doubles: [min, max + 1), both bounds exact (0 or powers
  // of two).
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(d >= lo && d < hi) || d != std::trunc(d)) return false;
  *out = static_cast<T>(d);
  return true;
}

/// Formats a double with the shortest representation that round-trips
/// (integers print without a fraction). Shared by every JSON emitter so
/// exports are byte-stable across call sites.
std::string json_number(double v);

}  // namespace es2
