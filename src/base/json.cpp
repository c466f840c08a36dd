#include "base/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace es2 {

Json Json::boolean(bool b) {
  Json j;
  j.value_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.value_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.value_ = Array();
  return j;
}

Json Json::object() {
  Json j;
  j.value_ = Members();
  return j;
}

bool Json::as_bool(bool fallback) const {
  const bool* b = std::get_if<bool>(&value_);
  return b ? *b : fallback;
}

double Json::as_number(double fallback) const {
  const double* v = std::get_if<double>(&value_);
  return v ? *v : fallback;
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&value_);
  return s ? *s : kEmpty;
}

std::size_t Json::size() const {
  const Array* items = std::get_if<Array>(&value_);
  return items ? items->size() : 0;
}

const Json& Json::at(std::size_t i) const {
  static const Json kNullValue;
  const Array* items = std::get_if<Array>(&value_);
  return items && i < items->size() ? (*items)[i] : kNullValue;
}

void Json::push_back(Json v) {
  if (!is_array()) value_ = Array();
  std::get<Array>(value_).push_back(std::move(v));
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  static const Members kNoMembers;
  const Members* members = std::get_if<Members>(&value_);
  return members ? *members : kNoMembers;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string key, Json v) {
  if (!is_object()) value_ = Members();
  Members& members = std::get<Members>(value_);
  for (auto& [k, existing] : members) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members.emplace_back(std::move(key), std::move(v));
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v ? v->as_number(fallback) : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v ? v->as_bool(fallback) : fallback;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  const Json* v = find(key);
  return v && v->is_string() ? v->as_string() : fallback;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
  // Integers up to 2^53 print exactly without a fraction; everything else
  // uses the shortest form that round-trips through strtod.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

std::string Json::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void newline_indent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string* out, int indent, int depth) const {
  switch (kind()) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Kind::kNumber:
      *out += json_number(std::get<double>(value_));
      break;
    case Kind::kString:
      *out += escape(std::get<std::string>(value_));
      break;
    case Kind::kArray: {
      const Array& items = std::get<Array>(value_);
      if (items.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out->push_back(',');
        newline_indent(out, indent, depth + 1);
        items[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      const Members& members = std::get<Members>(value_);
      if (members.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : members) {
        if (!first) out->push_back(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        *out += escape(k);
        *out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(&out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool run(Json* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& why) {
    if (error_ && error_->empty()) {
      *error_ = "json: " + why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool literal(const char* word) {
    std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool parse_string(std::string* out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("bad \\u escape");
              }
            }
            // UTF-8 encode the BMP code point; surrogate pairs are not
            // needed for our ASCII-ish metric names but encode losslessly
            // enough for round-tripping control characters.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json* out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      pos_ = start;
      return fail("invalid number");
    }
    *out = Json::number(v);
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!literal("null")) return false;
        *out = Json::null();
        return true;
      case 't':
        if (!literal("true")) return false;
        *out = Json::boolean(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = Json::boolean(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = Json::string(std::move(s));
        return true;
      }
      case '[': {
        ++pos_;
        *out = Json::array();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          Json item;
          skip_ws();
          if (!parse_value(&item, depth + 1)) return false;
          out->push_back(std::move(item));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated array");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++pos_;
        *out = Json::object();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (pos_ >= text_.size() || text_[pos_] != '"') {
            return fail("expected object key");
          }
          if (!parse_string(&key)) return false;
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_] != ':') {
            return fail("expected ':'");
          }
          ++pos_;
          skip_ws();
          Json value;
          if (!parse_value(&value, depth + 1)) return false;
          out->set(std::move(key), std::move(value));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated object");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          return parse_number(out);
        }
        return fail("unexpected character");
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::parse(const std::string& text, Json* out, std::string* error) {
  if (error) error->clear();
  Parser p(text, error);
  return p.run(out);
}

}  // namespace es2
