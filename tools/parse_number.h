// Strict flag values for the command-line tools.
//
// std::atoi and friends read "2x" as 2, "abc" as 0 and "-1" as a huge
// unsigned value, so a typo silently changes what a tool measures. Every
// numeric flag goes through parse_number() instead, and a tool exits 2 when
// it returns false. ArgReader is the flag loop's one reader of values.
#pragma once

#include <charconv>
#include <iostream>
#include <string_view>
#include <system_error>

namespace rbcast::tools {

// Reads a numeric flag value strictly: the whole string must be a number
// of T's type and range, so "2x", "abc" and (for an unsigned T) "-1" are
// rejected instead of misread. On failure prints one line naming the flag.
template <typename T>
bool parse_number(std::string_view flag, std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  if (text.empty() || ec != std::errc{} || stop != end) {
    std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
    return false;
  }
  return true;
}

// Reads flag values for a tool's `for (int i = 1; i < argc; ++i)` loop over
// argv. Each read advances `i` onto the value; on failure it prints one
// line naming the flag and returns nullptr or false.
struct ArgReader {
  int argc;
  char** argv;

  // The value after the flag argv[i].
  const char* value(int& i) const {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  }

  // The value after the flag argv[i], read strictly into `out`.
  template <typename T>
  bool number(int& i, T& out) const {
    const char* flag = argv[i];
    const char* text = value(i);
    return text != nullptr && parse_number(flag, text, out);
  }
};

}  // namespace rbcast::tools
