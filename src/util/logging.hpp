#pragma once

#include <atomic>
#include <mutex>
#include <string>

namespace uucs {

/// Log severities, in increasing order.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Minimal thread-safe logger writing single lines to stderr.
///
/// The library logs sparingly (connection events, calibration summaries,
/// recoverable errors); benches and tests usually raise the threshold to
/// kWarn to keep output clean.
class Logger {
 public:
  /// Process-wide logger instance.
  static Logger& instance();

  /// Messages below `level` are dropped.
  void set_level(LogLevel level) { level_.store(level); }
  LogLevel level() const { return level_.load(); }

  /// Whether a `level` message would be emitted. One atomic load: test it
  /// before building a message on a per-request path.
  bool enabled(LogLevel level) const {
    return level >= this->level() && level < LogLevel::kOff;
  }

  /// Emits one log line "[level] component: message" if enabled.
  void log(LogLevel level, const std::string& component, const std::string& message);

 private:
  Logger() = default;
  std::mutex mu_;  ///< serializes output lines
  std::atomic<LogLevel> level_{LogLevel::kInfo};
};

/// Convenience wrappers on the global logger.
void log_debug(const std::string& component, const std::string& message);
void log_info(const std::string& component, const std::string& message);
void log_warn(const std::string& component, const std::string& message);
void log_error(const std::string& component, const std::string& message);

}  // namespace uucs
