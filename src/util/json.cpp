#include "util/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace vcopt::util {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::logic_error(std::string("Json: expected ") + want + ", have type " +
                         std::to_string(static_cast<int>(got)));
}

// --- Parser -------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(
        "Json::parse: " + what + " at offset " + std::to_string(pos_), pos_);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect_keyword(const char* kw) {
    for (const char* p = kw; *p; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_keyword("true"); return Json(true);
      case 'f': expect_keyword("false"); return Json(false);
      case 'n': expect_keyword("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (consume('}')) return Json(std::move(obj));
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(']')) return Json(std::move(arr));
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = get();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (!consume('0')) {
      if (pos_ >= text_.size() || text_[pos_] < '1' || text_[pos_] > '9') {
        fail("bad number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("bad fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("bad exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    errno = 0;
    const double v =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    // Overflow is an error at the number; an underflow keeps strtod's
    // rounded value.
    if (errno == ERANGE && std::isinf(v)) {
      pos_ = start;
      fail("number out of range");
    }
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_json_number(std::string& out, double v) {
  if (v == 0 && std::signbit(v)) {
    out += "-0";  // what "%.0f" prints; the integer path would drop the sign
    return;
  }
  char buf[32];  // "%.17g" needs at most 24: sign, 17 digits, '.', "e-308"
  char* const end = buf + sizeof(buf);
  const std::to_chars_result r =
      v == std::floor(v) && std::abs(v) < 1e15
          ? std::to_chars(buf, end, static_cast<long long>(v))
          : std::to_chars(buf, end, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
  out += '"';
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

int Json::as_int() const {
  const double v = as_number();
  if (v != std::floor(v)) throw std::logic_error("Json: number is not integral");
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max())) {
    throw std::logic_error("Json: number is outside int's range");
  }
  return static_cast<int>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const JsonArray& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw std::out_of_range("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && obj_.count(key) > 0;
}

double Json::number_or(const std::string& key, double fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_number();
}

const Json& Json::at(std::size_t index) const {
  const JsonArray& arr = as_array();
  if (index >= arr.size()) throw std::out_of_range("Json: index out of range");
  return arr[index];
}

std::size_t Json::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  type_error("array or object", type_);
}

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const std::string nl = indent > 0 ? "\n" : "";
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : "";
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_json_number(out, num_); break;
    case Type::kString: append_json_string(out, str_); break;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += "[";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += (i ? "," : "") + nl + pad;
        arr_[i].dump_impl(out, indent, depth + 1);
      }
      out += nl + close_pad + "]";
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      bool first = true;
      for (const auto& [k, v] : obj_) {
        out += (first ? "" : ",") + nl + pad;
        first = false;
        append_json_string(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_impl(out, indent, depth + 1);
      }
      out += nl + close_pad + "}";
      break;
    }
  }
}

bool Json::operator==(const Json& o) const {
  if (type_ != o.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == o.bool_;
    case Type::kNumber: return num_ == o.num_;
    case Type::kString: return str_ == o.str_;
    case Type::kArray: return arr_ == o.arr_;
    case Type::kObject: return obj_ == o.obj_;
  }
  return false;
}

}  // namespace vcopt::util
