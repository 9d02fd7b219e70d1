#include "util/json.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace rbcast::util {

namespace {

constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string* out, unsigned cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& context)
      : text_(text), context_(context) {}

  Json parse() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(context_ + " JSON, offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  // The current character without skipping whitespace ('\0' at the end).
  [[nodiscard]] char here() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') {
      Json v;
      v.type = Json::Type::kString;
      v.str = string();
      return v;
    }
    if (consume_literal("true")) {
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      Json v;
      v.type = Json::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return Json{};
    return number();
  }

  Json object(int depth) {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      expect(':');
      v.members.emplace_back(std::move(key), value(depth + 1));
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json array(int depth) {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value(depth + 1));
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned hex4() {
    unsigned cp = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = here();
      unsigned digit = 0;
      if (is_digit(h)) {
        digit = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
      cp = cp * 16 + digit;
      ++pos_;
    }
    return cp;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_utf8(&out, hex4()); break;
          default: fail("unsupported escape in string");
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
  }

  void digits() {
    while (is_digit(here())) ++pos_;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Json number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (here() == '-') ++pos_;
    if (!is_digit(here())) fail("expected a value");
    if (here() == '0' && pos_ + 1 < text_.size() && is_digit(text_[pos_ + 1])) {
      fail("leading zero in number");
    }
    digits();
    if (here() == '.') {
      is_double = true;
      ++pos_;
      if (!is_digit(here())) fail("malformed fraction");
      digits();
    }
    if (here() == 'e' || here() == 'E') {
      is_double = true;
      ++pos_;
      if (here() == '+' || here() == '-') ++pos_;
      if (!is_digit(here())) fail("malformed exponent");
      digits();
    }
    const std::string lexeme = text_.substr(start, pos_ - start);
    Json v;
    v.type = Json::Type::kNumber;
    try {
      if (is_double) {
        v.number = std::stod(lexeme);
      } else if (lexeme[0] == '-') {
        v.number = static_cast<std::int64_t>(std::stoll(lexeme));
      } else {
        v.number = static_cast<std::uint64_t>(std::stoull(lexeme));
      }
    } catch (const std::exception&) {
      fail("number out of range");
    }
    return v;
  }

  const std::string& text_;
  const std::string& context_;
  std::size_t pos_{0};
};

void require_number(const Json& v, const std::string& what) {
  if (v.type != Json::Type::kNumber) {
    throw std::invalid_argument(what + " must be a number");
  }
}

// The number as a T: integers must fit exactly, doubles are truncated
// toward zero and must fit too (NaN never does).
template <class T>
T checked_integer(const Json& v, const std::string& what) {
  require_number(v, what);
  using Limits = std::numeric_limits<T>;
  const bool fits = std::visit(
      [](auto n) {
        if constexpr (std::is_same_v<decltype(n), double>) {
          // 2^digits is exact as a double; Limits::max() may not be.
          const double hi = std::ldexp(1.0, Limits::digits);
          const double lo = Limits::is_signed ? -hi : 0.0;
          const double t = std::trunc(n);
          return t >= lo && t < hi;
        } else {
          return std::in_range<T>(n);
        }
      },
      v.number);
  if (!fits) {
    throw std::invalid_argument(what + " must be an integer in [" +
                                std::to_string(Limits::min()) + ", " +
                                std::to_string(Limits::max()) + "]");
  }
  return std::visit([](auto n) { return static_cast<T>(n); }, v.number);
}

std::string member_name(const std::string& context, const char* key) {
  return context + ": '" + key + "'";
}

}  // namespace

Json parse_json(const std::string& text, const std::string& context) {
  return JsonParser(text, context).parse();
}

double json_double(const Json& v, const std::string& what) {
  require_number(v, what);
  return std::visit([](auto n) { return static_cast<double>(n); }, v.number);
}

std::int64_t json_i64(const Json& v, const std::string& what) {
  return checked_integer<std::int64_t>(v, what);
}

std::uint64_t json_u64(const Json& v, const std::string& what) {
  return checked_integer<std::uint64_t>(v, what);
}

double json_num_or(const Json& obj, const char* key, double fallback,
                   const std::string& context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : json_double(*v, member_name(context, key));
}

int json_int_or(const Json& obj, const char* key, int fallback,
                const std::string& context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback
                      : checked_integer<int>(*v, member_name(context, key));
}

std::int64_t json_i64_or(const Json& obj, const char* key,
                         std::int64_t fallback, const std::string& context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : json_i64(*v, member_name(context, key));
}

std::uint64_t json_u64_or(const Json& obj, const char* key,
                          std::uint64_t fallback, const std::string& context) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : json_u64(*v, member_name(context, key));
}

bool json_bool_or(const Json& obj, const char* key, bool fallback,
                  const std::string& context) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != Json::Type::kBool) {
    throw std::invalid_argument(context + ": '" + key + "' must be a boolean");
  }
  return v->boolean;
}

std::string json_str_or(const Json& obj, const char* key, std::string fallback,
                        const std::string& context) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != Json::Type::kString) {
    throw std::invalid_argument(context + ": '" + key + "' must be a string");
  }
  return v->str;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  // %.12g, as an ostream with precision(12) prints it, but locale-free
  // and without a temporary stream.
  std::array<char, 32> buf{};
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                    std::chars_format::general, 12);
  os.write(buf.data(), result.ptr - buf.data());
}

}  // namespace rbcast::util
