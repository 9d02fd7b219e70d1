#include "util/logging.h"

#include <cstdio>

namespace rbcast::util {

Logger& Logger::instance() {
  static Logger logger;  // analyze:allow(singleton) observation-only, level-gated logger; the simulator is single-threaded
  return logger;
}

void Logger::write(LogLevel level, const std::string& msg) {
  const char* tag = "?";
  switch (level) {
    case LogLevel::kError:
      tag = "E";
      break;
    case LogLevel::kInfo:
      tag = "I";
      break;
    case LogLevel::kDebug:
      tag = "D";
      break;
    case LogLevel::kNone:
      return;
  }
  if (now_us_ != nullptr) {
    std::fprintf(stderr, "[%c %10.6fs] %s\n", *tag,
                 static_cast<double>(*now_us_) / 1e6, msg.c_str());
  } else {
    std::fprintf(stderr, "[%c] %s\n", *tag, msg.c_str());
  }
}

}  // namespace rbcast::util
