#include "common/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace grinch::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value& Value::set(const std::string& key, Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

Value& Value::push(Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  elements_.push_back(std::move(v));
  return *this;
}

namespace {

void indent(std::string& out, unsigned depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

std::string format_double(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no inf/nan
  // Shortest representation that round-trips; integral doubles print
  // without an exponent for readability.
  char buf[40];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.1f", d);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

}  // namespace

void Value::write(std::string& out, unsigned depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kInt: out += std::to_string(int_); return;
    case Kind::kUint: out += std::to_string(uint_); return;
    case Kind::kDouble: out += format_double(double_); return;
    case Kind::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      return;
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        indent(out, depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += "\": ";
        members_[i].second.write(out, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += '\n';
      }
      indent(out, depth);
      out += '}';
      return;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        indent(out, depth + 1);
        elements_[i].write(out, depth + 1);
        if (i + 1 < elements_.size()) out += ',';
        out += '\n';
      }
      indent(out, depth);
      out += ']';
      return;
    }
  }
}

void Value::write_compact(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kInt: out += std::to_string(int_); return;
    case Kind::kUint: out += std::to_string(uint_); return;
    case Kind::kDouble: out += format_double(double_); return;
    case Kind::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      return;
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        out += '"';
        out += escape(members_[i].first);
        out += "\":";
        members_[i].second.write_compact(out);
      }
      out += '}';
      return;
    }
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i != 0) out += ',';
        elements_[i].write_compact(out);
      }
      out += ']';
      return;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0);
  out += '\n';
  return out;
}

std::string Value::dump_compact() const {
  std::string out;
  write_compact(out);
  return out;
}

const Value* Value::get(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::as_string(const std::string& fallback) const {
  return kind_ == Kind::kString ? string_ : fallback;
}

std::uint64_t Value::as_u64(std::uint64_t fallback) const noexcept {
  return to_u64().value_or(fallback);
}

std::optional<std::uint64_t> Value::to_u64() const noexcept {
  switch (kind_) {
    case Kind::kUint: return uint_;
    case Kind::kInt:
      if (int_ >= 0) return static_cast<std::uint64_t>(int_);
      return std::nullopt;
    case Kind::kDouble:
      // 2^64 itself does not fit: the double bound is exclusive.
      if (double_ >= 0 && double_ == std::floor(double_) &&
          double_ < 18446744073709551616.0) {
        return static_cast<std::uint64_t>(double_);
      }
      return std::nullopt;
    default: return std::nullopt;
  }
}

double Value::as_double(double fallback) const noexcept {
  switch (kind_) {
    case Kind::kDouble: return double_;
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    default: return fallback;
  }
}

bool Value::as_bool(bool fallback) const noexcept {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

namespace {

/// Recursive-descent parser over the subset dump() writes.
class Parser {
 public:
  explicit Parser(std::string_view text) noexcept : text_(text) {}

  std::optional<Value> run(std::string* error) {
    std::optional<Value> v = value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        v.reset();
        fail("trailing characters after document");
      }
    }
    if (!v && error != nullptr) {
      *error = "offset " + std::to_string(error_pos_) + ": " + error_;
    }
    return v;
  }

 private:
  static constexpr unsigned kMaxDepth = 64;  ///< nesting bound (no UB recursion)

  void fail(const char* reason) {
    if (error_.empty()) {
      error_ = reason;
      error_pos_ = pos_;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> value() {
    if (++depth_ > kMaxDepth) {
      fail("nesting too deep");
      --depth_;
      return std::nullopt;
    }
    skip_ws();
    std::optional<Value> out;
    if (pos_ >= text_.size()) {
      fail("unexpected end of document");
    } else if (text_[pos_] == '{') {
      out = object();
    } else if (text_[pos_] == '[') {
      out = array();
    } else if (text_[pos_] == '"') {
      std::string s;
      if (string(s)) out = Value{std::move(s)};
    } else if (literal("true")) {
      out = Value{true};
    } else if (literal("false")) {
      out = Value{false};
    } else if (literal("null")) {
      out = Value{};
    } else {
      out = number();
    }
    --depth_;
    return out;
  }

  std::optional<Value> object() {
    ++pos_;  // '{'
    Value obj = Value::object();
    if (eat('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !string(key)) {
        fail("expected object key");
        return std::nullopt;
      }
      if (obj.get(key) != nullptr) {
        fail("duplicate object key");
        return std::nullopt;
      }
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<Value> v = value();
      if (!v) return std::nullopt;
      obj.set(key, std::move(*v));
      if (eat(',')) continue;
      if (eat('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Value> array() {
    ++pos_;  // '['
    Value arr = Value::array();
    if (eat(']')) return arr;
    for (;;) {
      std::optional<Value> v = value();
      if (!v) return std::nullopt;
      arr.push(std::move(*v));
      if (eat(',')) continue;
      if (eat(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) break;
      const char esc = text_[pos_ + 1];
      pos_ += 2;
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
          for (unsigned i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return false;
            }
          }
          // UTF-8 encode (escape() only emits < 0x20, but accept the BMP;
          // surrogate pairs are out of scope for this subset).
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
        default:
          fail("unknown string escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  std::optional<Value> number() {
    const std::size_t start = pos_;
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    bool integral = true;
    std::size_t digits = 0;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++digits;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
      } else {
        break;
      }
      ++pos_;
    }
    if (digits == 0) {
      pos_ = start;
      fail("expected a value");
      return std::nullopt;
    }
    const std::string token{text_.substr(start, pos_ - start)};
    // JSON forbids leading zeros ("01"); "0" and "0.5" stay legal.
    const std::size_t first_digit = negative ? 1 : 0;
    if (token.size() > first_digit + 1 && token[first_digit] == '0' &&
        token[first_digit + 1] >= '0' && token[first_digit + 1] <= '9') {
      pos_ = start;
      fail("leading zero in number");
      return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    if (integral) {
      if (negative) {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Value{static_cast<std::int64_t>(v)};
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Value{static_cast<std::uint64_t>(v)};
        }
      }
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number");
      return std::nullopt;
    }
    return Value{d};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser{text}.run(error);
}

}  // namespace grinch::json
