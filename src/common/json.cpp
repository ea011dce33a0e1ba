#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace mempool {

bool Json::as_bool() const {
  MEMPOOL_CHECK_MSG(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

int64_t Json::as_int() const {
  if (type_ == Type::kInt) return int_;
  MEMPOOL_CHECK_MSG(type_ == Type::kDouble && double_ == std::floor(double_),
                    "JSON value is not an integer");
  // 2^63 is exactly representable as a double; values at or beyond it (or
  // below -2^63) would make the cast undefined behavior.
  MEMPOOL_CHECK_MSG(double_ >= -9223372036854775808.0 &&
                        double_ < 9223372036854775808.0,
                    "JSON number " << double_ << " exceeds int64 range");
  return static_cast<int64_t>(double_);
}

uint64_t Json::as_uint() const {
  const int64_t v = as_int();
  MEMPOOL_CHECK_MSG(v >= 0, "JSON integer is negative");
  return static_cast<uint64_t>(v);
}

double Json::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  MEMPOOL_CHECK_MSG(type_ == Type::kDouble, "JSON value is not a number");
  return double_;
}

const std::string& Json::as_string() const {
  MEMPOOL_CHECK_MSG(type_ == Type::kString, "JSON value is not a string");
  return string_;
}

const Json::Array& Json::items() const {
  MEMPOOL_CHECK_MSG(type_ == Type::kArray, "JSON value is not an array");
  return array_;
}

const Json::Object& Json::members() const {
  MEMPOOL_CHECK_MSG(type_ == Type::kObject, "JSON value is not an object");
  return object_;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt: return int_ == other.int_;
    case Type::kDouble: return double_ == other.double_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

void Json::push_back(Json v) {
  MEMPOOL_CHECK_MSG(type_ == Type::kArray, "push_back on non-array JSON");
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  MEMPOOL_CHECK_MSG(false, "size() on non-container JSON");
  return 0;
}

const Json& Json::at(std::size_t i) const {
  MEMPOOL_CHECK_MSG(type_ == Type::kArray && i < array_.size(),
                    "JSON array index " << i << " out of range");
  return array_[i];
}

void Json::set(const std::string& key, Json v) {
  MEMPOOL_CHECK_MSG(type_ == Type::kObject, "set() on non-object JSON");
  for (auto& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

bool Json::contains(const std::string& key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& m : object_)
    if (m.first == key) return true;
  return false;
}

const Json& Json::at(const std::string& key) const {
  MEMPOOL_CHECK_MSG(type_ == Type::kObject, "at(key) on non-object JSON");
  for (const auto& m : object_)
    if (m.first == key) return m.second;
  MEMPOOL_CHECK_MSG(false, "JSON object has no member '" << key << "'");
  static const Json kNull;
  return kNull;
}

Json Json::get(const std::string& key, const Json& fallback) const {
  if (type_ == Type::kObject)
    for (const auto& m : object_)
      if (m.first == key) return m.second;
  return fallback;
}

uint32_t Json::get_u32(const std::string& key, uint32_t fallback) const {
  return contains(key) ? at_u32(key) : fallback;
}

uint32_t Json::at_u32(const std::string& key) const {
  const uint64_t v = at(key).as_uint();
  MEMPOOL_CHECK_MSG(v <= UINT32_MAX, "JSON member '" << key << "' (" << v
                                                     << ") exceeds "
                                                     << UINT32_MAX);
  return static_cast<uint32_t>(v);
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Shortest representation that round-trips a double exactly.
void format_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; emit null.
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = std::strtod(buf, nullptr);
  if (back == v) {
    char shorter[40];
    for (int prec = 1; prec < 17; ++prec) {
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) {
        out += shorter;
        return;
      }
    }
  }
  out += buf;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kDouble: format_double(out, double_); break;
    case Type::kString: escape_string(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        escape_string(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the text with a cursor.
// ---------------------------------------------------------------------------
namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    MEMPOOL_CHECK_MSG(false, "JSON parse error at offset " << pos << ": "
                                                           << what);
    std::abort();  // unreachable; MEMPOOL_CHECK_MSG throws
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      std::string msg = "expected '";
      msg += c;
      msg += '\'';
      fail(msg);
    }
    ++pos;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text.compare(pos, n, lit) == 0) {
      pos += n;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) fail("bad escape");
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) fail("bad \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            if (v < 0x80) {
              out += static_cast<char>(v);
            } else if (v < 0x800) {
              out += static_cast<char>(0xC0 | (v >> 6));
              out += static_cast<char>(0x80 | (v & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (v >> 12));
              out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (v & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    bool is_double = false;
    while (pos < text.size()) {
      char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos;
      } else {
        break;
      }
    }
    const std::string tok = text.substr(start, pos - start);
    if (tok.empty() || tok == "-") fail("bad number");
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') return Json(static_cast<int64_t>(v));
      // Fall through to double on int64 overflow.
    }
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0') fail("bad number");
    return Json(d);
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': {
        ++pos;
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') { ++pos; return obj; }
        while (true) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          obj.set(key, parse_value());
          skip_ws();
          if (peek() == ',') { ++pos; continue; }
          expect('}');
          return obj;
        }
      }
      case '[': {
        ++pos;
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') { ++pos; return arr; }
        while (true) {
          arr.push_back(parse_value());
          skip_ws();
          if (peek() == ',') { ++pos; continue; }
          expect(']');
          return arr;
        }
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }
};

}  // namespace

Json Json::parse(const std::string& text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  MEMPOOL_CHECK_MSG(p.pos == text.size(),
                    "JSON parse error: trailing characters at offset " << p.pos);
  return v;
}

}  // namespace mempool
