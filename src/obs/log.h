// Leveled structured logger with a human-readable text sink and an
// optional JSONL sink.
//
// Every record carries a component tag, a message, and typed key/value
// fields; the text sink renders `LEVEL [component] message k=v ...` while
// the JSONL sink emits one flat JSON object per line (reserved keys:
// ts_ms, level, component, message — fields are merged alongside them).
// The level is runtime-settable (PARAGRAPH_LOG env or --log-level flag).
#pragma once

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace paragraph::obs {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* log_level_name(LogLevel l);
std::optional<LogLevel> parse_log_level(std::string_view name);

struct LogField {
  std::string key;
  JsonValue value;
};

class Logger {
 public:
  // Initial level comes from PARAGRAPH_LOG (default: info).
  static Logger& instance();

  LogLevel level() const;
  void set_level(LogLevel l);
  bool should_log(LogLevel l) const { return l >= level() && l < LogLevel::kOff; }

  // Text sink; nullptr silences it. Defaults to stderr.
  void set_text_stream(std::FILE* f);

  // JSONL sink; returns false when the file cannot be opened.
  bool open_jsonl(const std::string& path);
  void close_jsonl();

  void log(LogLevel lvl, std::string_view component, std::string_view message,
           std::initializer_list<LogField> fields = {});

 private:
  Logger();
  struct Impl;
  Impl* impl_;
};

inline void log_debug(std::string_view component, std::string_view message,
                      std::initializer_list<LogField> fields = {}) {
  Logger::instance().log(LogLevel::kDebug, component, message, fields);
}
inline void log_info(std::string_view component, std::string_view message,
                     std::initializer_list<LogField> fields = {}) {
  Logger::instance().log(LogLevel::kInfo, component, message, fields);
}
inline void log_warn(std::string_view component, std::string_view message,
                     std::initializer_list<LogField> fields = {}) {
  Logger::instance().log(LogLevel::kWarn, component, message, fields);
}
inline void log_error(std::string_view component, std::string_view message,
                      std::initializer_list<LogField> fields = {}) {
  Logger::instance().log(LogLevel::kError, component, message, fields);
}

}  // namespace paragraph::obs
