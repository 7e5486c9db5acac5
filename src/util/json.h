// Minimal JSON value, recursive-descent parser and serializer — enough to
// load/store cloud descriptions and scenario configs (no external
// dependencies are available offline).  Supports the full JSON grammar
// except \u escapes beyond basic-multilingual-plane passthrough.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vcopt::util {

/// Appends `v` the way Json::dump writes a number: integral values below
/// 1e15 in magnitude as plain integers ("-0" for negative zero), everything
/// else as printf's "%.17g" (std::to_chars, general format, precision 17),
/// which round-trips every finite double.  The one number formatter: writers
/// that emit JSON without building a Json (the service journal) call it too.
void append_json_number(std::string& out, double v);

/// Appends `s` as a quoted JSON string, escaping '"', '\\' and control
/// characters exactly as Json::dump does.
void append_json_string(std::string& out, std::string_view s);

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// Thrown by Json::parse on malformed input.  Carries the byte offset of the
/// failure so loaders can convert it into a line/column diagnostic against
/// the original text (which the parser no longer has).
class JsonParseError : public std::invalid_argument {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::invalid_argument(what), offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Immutable-ish JSON value with value semantics.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), num_(n) {}
  Json(int n) : type_(Type::kNumber), num_(n) {}
  Json(long n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Json(std::size_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::kArray), arr_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::kObject), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::logic_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  int as_int() const;  ///< rejects non-integral numbers and ones outside int
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member access; throws if not an object or key missing.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// Object member with fallback when absent.
  double number_or(const std::string& key, double fallback) const;

  /// Array element access; throws on type mismatch / out of range.
  const Json& at(std::size_t index) const;
  std::size_t size() const;  ///< array/object element count

  /// Serialises; `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; throws JsonParseError (an
  /// std::invalid_argument carrying the byte offset) on malformed input.
  static Json parse(const std::string& text);

  bool operator==(const Json& o) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

}  // namespace vcopt::util
