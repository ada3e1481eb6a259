#include "util/logging.hpp"

#include <cstdio>

namespace uucs {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::log(LogLevel level, const std::string& component,
                 const std::string& message) {
  static const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  if (!enabled(level)) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(stderr, "[%s] %s: %s\n", kNames[static_cast<int>(level)],
               component.c_str(), message.c_str());
}

void log_debug(const std::string& c, const std::string& m) {
  Logger::instance().log(LogLevel::kDebug, c, m);
}
void log_info(const std::string& c, const std::string& m) {
  Logger::instance().log(LogLevel::kInfo, c, m);
}
void log_warn(const std::string& c, const std::string& m) {
  Logger::instance().log(LogLevel::kWarn, c, m);
}
void log_error(const std::string& c, const std::string& m) {
  Logger::instance().log(LogLevel::kError, c, m);
}

}  // namespace uucs
