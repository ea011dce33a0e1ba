#pragma once
// Minimal self-contained JSON value: enough to emit machine-readable bench
// results (`*.results.json`) and read them back for round-trip checks and
// trajectory tooling. Objects preserve insertion order so emitted files are
// stable and diffable; numbers are stored as double (plus an exact int64
// side-channel so cycle counts survive a round trip bit-exactly).
//
// Deliberately not a general-purpose JSON library: no comments, no \u escapes
// beyond pass-through ASCII, no streaming. Parse errors throw CheckError.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace mempool {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(int v) : type_(Type::kInt), int_(v) {}     // NOLINT
  Json(unsigned v) : type_(Type::kInt), int_(v) {}               // NOLINT
  Json(int64_t v) : type_(Type::kInt), int_(v) {}                // NOLINT
  // NOLINTNEXTLINE(google-explicit-constructor)
  Json(uint64_t v) : type_(Type::kInt), int_(static_cast<int64_t>(v)) {
    // Storage is int64; a value above INT64_MAX would serialize negative and
    // corrupt the round trip, so reject it loudly at construction.
    MEMPOOL_CHECK_MSG(v <= static_cast<uint64_t>(
                               std::numeric_limits<int64_t>::max()),
                      "JSON integer " << v << " exceeds int64 range");
  }
  Json(double v) : type_(Type::kDouble), double_(v) {}           // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}      // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT

  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kInt || type_ == Type::kDouble; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw CheckError on type mismatch.
  bool as_bool() const;
  int64_t as_int() const;     ///< Exact for kInt; kDouble must be integral.
  uint64_t as_uint() const;
  double as_double() const;   ///< Valid for kInt and kDouble.
  const std::string& as_string() const;
  const Array& items() const;
  const Object& members() const;

  // --- array building -------------------------------------------------------
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  // --- object building ------------------------------------------------------
  /// Insert or overwrite member @p key (insertion order preserved).
  void set(const std::string& key, Json v);
  bool contains(const std::string& key) const;
  /// Member lookup; throws CheckError when absent.
  const Json& at(const std::string& key) const;
  /// Member lookup with fallback. Returns by value: callers routinely pass a
  /// temporary fallback, which a reference return would leave dangling.
  Json get(const std::string& key, const Json& fallback) const;
  /// Member @p key as a 32-bit unsigned integer (@p fallback when absent). A
  /// wider value throws a CheckError naming the member instead of being
  /// truncated into a different, valid-looking number.
  uint32_t get_u32(const std::string& key, uint32_t fallback) const;
  /// get_u32 of a required member: throws CheckError when absent.
  uint32_t at_u32(const std::string& key) const;

  /// Deep structural equality: same type and same value (kInt and kDouble
  /// never compare equal, even for the same numeric value — serialization
  /// would differ). Object members must match in the same insertion order.
  bool operator==(const Json& other) const;

  /// Serialize. @p indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Deepest nesting of objects and arrays parse() accepts. The parser
  /// recurses once per level, so a hostile line of '[' would otherwise
  /// overflow the stack; no document this project writes nests more than 6
  /// deep.
  static constexpr std::size_t kMaxDepth = 64;

  /// Parse a complete JSON document (trailing garbage is an error). Nesting
  /// deeper than kMaxDepth throws a CheckError naming the limit.
  static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace mempool
