#include "obs/profile.h"

#include <string_view>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace paragraph::obs {

namespace {

// Current phase path of this thread, segments joined by '/'.
thread_local std::string t_phase_path;

constexpr std::string_view kPhasePrefix = "time/";

}  // namespace

void record_phase(const std::string& path, double dur_us) {
  std::string name(kPhasePrefix);
  name += path;
  MetricsRegistry::instance().histogram(name).record(dur_us);
}

JsonValue profile_json(const MetricsSnapshot& snap) {
  JsonValue root = JsonValue::object();
  for (const auto& [name, s] : snap.histograms) {
    if (s.count == 0 || !name.starts_with(kPhasePrefix)) continue;
    JsonValue o = JsonValue::object();
    o.set("count", s.count);
    o.set("total_ms", s.sum / 1e3);
    o.set("mean_us", s.mean);
    o.set("min_us", s.min);
    o.set("max_us", s.max);
    root.set(name.substr(kPhasePrefix.size()), std::move(o));
  }
  return root;
}

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;
  active_ = true;
  name_ = name;
  parent_path_len_ = t_phase_path.size();
  if (!t_phase_path.empty()) t_phase_path += '/';
  t_phase_path += name;
  FlightRecorder::instance().phase_enter(name);
  start_us_ = now_us();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  const std::int64_t end_us = now_us();
  const double dur_us = static_cast<double>(end_us - start_us_);
  record_phase(t_phase_path, dur_us);
  TraceCollector& tracer = TraceCollector::instance();
  if (tracer.enabled()) tracer.add_complete(name_, "scope", start_us_, end_us - start_us_);
  FlightRecorder::instance().phase_exit();
  t_phase_path.resize(parent_path_len_);
}

}  // namespace paragraph::obs
