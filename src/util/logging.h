// Minimal leveled logger.
//
// The simulator injects the current virtual time into every record so a
// trace reads like a network event log. Logging is off by default (level
// kNone) so tests and benches run silently; examples turn it up.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace rbcast::util {

enum class LogLevel : int { kNone = 0, kError = 1, kInfo = 2, kDebug = 3 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  // The simulator registers a clock so records carry virtual time (us).
  void set_clock(const std::int64_t* now_us) { now_us_ = now_us; }

  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) <= static_cast<int>(level_);
  }

  void write(LogLevel level, const std::string& msg);

 private:
  Logger() = default;
  // The logger is the one process-wide singleton the shared-state census
  // waives (see logging.cpp). The simulator is single-threaded; running it
  // on several threads would need per-thread sinks or a lock here.
  LogLevel level_{LogLevel::kNone};
  const std::int64_t* now_us_{nullptr};
};

}  // namespace rbcast::util

#define RBCAST_LOG(level, expr)                                            \
  do {                                                                     \
    auto& rbcast_logger = ::rbcast::util::Logger::instance();              \
    if (rbcast_logger.enabled(level)) {                                    \
      std::ostringstream rbcast_log_os;                                    \
      rbcast_log_os << expr;                                               \
      rbcast_logger.write(level, rbcast_log_os.str());                     \
    }                                                                      \
  } while (false)

#define RBCAST_INFO(expr) RBCAST_LOG(::rbcast::util::LogLevel::kInfo, expr)
#define RBCAST_DEBUG(expr) RBCAST_LOG(::rbcast::util::LogLevel::kDebug, expr)
#define RBCAST_ERROR(expr) RBCAST_LOG(::rbcast::util::LogLevel::kError, expr)
