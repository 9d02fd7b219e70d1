// The one JSON codec: the JSON that src/ and tools/ read and write goes
// through here.
//
// Reading: parse_json is a strict recursive-descent parser used for
// chaos specs, rbcast_node configs, /status documents, JSONL trace
// records (trace::TraceReader maps each line's object onto a
// TraceRecord), the Chrome-trace syntax check and the rbcast_analyze
// baseline. Numbers follow the JSON grammar exactly (no leading '+' or
// zeros) and integers stay exact: a negative integer is an int64, a
// non-negative one a uint64, anything with a fraction or exponent a
// double; an integer outside 64 bits is rejected. `\uXXXX` escapes decode
// to UTF-8. Nesting deeper than 64 levels is rejected so hostile input
// cannot blow the stack. Object member order is preserved (writers emit
// members in a fixed order, so round-trips are byte-stable).
//
// Writing: write_json_string and write_json_number escape strings and
// format doubles for every JSON writer in src/ and tools/ (except the
// chaos repro.json writer, whose 10-digit doubles are part of its
// format); writers assemble documents around them.
//
// Lives in util (not harness) so the chaos harness, the trace layer and
// the tools can all share it without an upward layer edge.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rbcast::util {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type{Type::kNull};
  bool boolean{false};
  // kNumber, exactly as written (see the header comment).
  std::variant<std::int64_t, std::uint64_t, double> number;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// Parses exactly one JSON value (trailing garbage rejected). Throws
// std::invalid_argument on malformed input; `context` prefixes the error
// ("<context> JSON, offset N: ...") so callers name their document kind.
[[nodiscard]] Json parse_json(const std::string& text,
                              const std::string& context);

// Numeric conversions of one value. A non-number, or a value outside the
// target type, throws std::invalid_argument ("<what> must be ..."). The
// integer conversions truncate a double toward zero.
[[nodiscard]] double json_double(const Json& v, const std::string& what);
[[nodiscard]] std::int64_t json_i64(const Json& v, const std::string& what);
[[nodiscard]] std::uint64_t json_u64(const Json& v, const std::string& what);

// Typed member access with a fallback for absent keys. A present key of
// the wrong type or out of range throws std::invalid_argument
// ("<context>: 'key' must be a ...") — silently coercing a typo'd config
// is worse than failing.
[[nodiscard]] double json_num_or(const Json& obj, const char* key,
                                 double fallback, const std::string& context);
[[nodiscard]] int json_int_or(const Json& obj, const char* key, int fallback,
                              const std::string& context);
[[nodiscard]] std::int64_t json_i64_or(const Json& obj, const char* key,
                                       std::int64_t fallback,
                                       const std::string& context);
[[nodiscard]] std::uint64_t json_u64_or(const Json& obj, const char* key,
                                        std::uint64_t fallback,
                                        const std::string& context);
[[nodiscard]] bool json_bool_or(const Json& obj, const char* key,
                                bool fallback, const std::string& context);
[[nodiscard]] std::string json_str_or(const Json& obj, const char* key,
                                      std::string fallback,
                                      const std::string& context);

// Writes `s` as a quoted JSON string: '"', '\\', \n, \t and \r get their
// short escapes, other bytes below 0x20 become \u00xx, everything else
// (UTF-8 included) is copied verbatim.
void write_json_string(std::ostream& os, std::string_view s);

// Writes `v` with 12 significant digits, independent of the stream's
// own precision; NaN and infinities (which JSON cannot spell) as null.
void write_json_number(std::ostream& os, double v);

}  // namespace rbcast::util
