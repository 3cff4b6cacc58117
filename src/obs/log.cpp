#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/control.h"
#include "obs/flight_recorder.h"

namespace paragraph::obs {

const char* log_level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  std::string lowered(name);
  for (char& c : lowered)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  for (const LogLevel l : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
    if (lowered == log_level_name(l)) return l;
  }
  return std::nullopt;
}

struct Logger::Impl {
  std::atomic<int> level{static_cast<int>(LogLevel::kInfo)};
  std::mutex mu;  // serialises sink writes
  std::FILE* text = stderr;
  std::ofstream jsonl;
};

Logger::Logger() : impl_(new Impl) {
  if (const char* env = std::getenv("PARAGRAPH_LOG")) {
    if (const auto l = parse_log_level(env)) impl_->level.store(static_cast<int>(*l));
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

LogLevel Logger::level() const {
  return static_cast<LogLevel>(impl_->level.load(std::memory_order_relaxed));
}

void Logger::set_level(LogLevel l) {
  impl_->level.store(static_cast<int>(l), std::memory_order_relaxed);
}

void Logger::set_text_stream(std::FILE* f) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->text = f;
}

bool Logger::open_jsonl(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->jsonl.close();
  impl_->jsonl.clear();
  impl_->jsonl.open(path, std::ios::out | std::ios::trunc);
  return impl_->jsonl.is_open();
}

void Logger::close_jsonl() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->jsonl.close();
}

namespace {

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Scalar rendering for the text sink; strings are emitted bare.
void render_text_value(const JsonValue& v, std::string& out) {
  if (v.is_string()) {
    out += v.as_string();
  } else {
    v.dump_to(out);
  }
}

}  // namespace

void Logger::log(LogLevel lvl, std::string_view component, std::string_view message,
                 std::initializer_list<LogField> fields) {
  if (!should_log(lvl)) return;
  const std::int64_t ts_ms = wall_clock_ms();
  FlightRecorder::instance().record(FlightEvent::Kind::kLog,
                                    static_cast<std::uint8_t>(lvl), component, message);

  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->text != nullptr) {
    std::string line;
    line.reserve(96);
    line += log_level_name(lvl);
    line.resize(6, ' ');  // pad the level column ("error" is the longest)
    line += "[";
    line += component;
    line += "] ";
    line += message;
    for (const LogField& f : fields) {
      line += " ";
      line += f.key;
      line += "=";
      render_text_value(f.value, line);
    }
    std::fprintf(impl_->text, "%s\n", line.c_str());
  }
  if (impl_->jsonl.is_open()) {
    JsonValue rec = JsonValue::object();
    rec.set("ts_ms", ts_ms);
    rec.set("level", log_level_name(lvl));
    rec.set("component", std::string(component));
    rec.set("message", std::string(message));
    for (const LogField& f : fields) rec.set(f.key, f.value);
    impl_->jsonl << rec.dump() << '\n';
    impl_->jsonl.flush();
  }
}

// ------------------------------------------------- master switch ----

namespace detail {
std::atomic<bool> g_instrumentation_enabled{false};
}

void set_enabled(bool on) {
  detail::g_instrumentation_enabled.store(on, std::memory_order_relaxed);
}

void init_from_env() {
  if (const char* env = std::getenv("PARAGRAPH_LOG")) {
    if (const auto l = parse_log_level(env)) Logger::instance().set_level(*l);
  }
  if (const char* env = std::getenv("PARAGRAPH_OBS")) {
    set_enabled(env[0] != '\0' && env[0] != '0');
  }
}

}  // namespace paragraph::obs
