// RAII scoped timers over the metrics registry's phase histograms.
//
// A ScopedTimer pushes its name onto a thread-local phase path
// ("train/epoch/forward/..."); on destruction it records the scope's wall
// time into the metrics histogram "time/<path>" (count, sum, min, max and
// p50/p95/p99 per phase) and — when tracing is on — appends a Chrome
// trace event. The constructor checks obs::enabled() once; a disabled
// timer records nothing and costs one relaxed atomic load.
//
//   void train_epoch() {
//     PARAGRAPH_TIMED_SCOPE("epoch");
//     ...
//   }
#pragma once

#include <cstdint>
#include <string>

#include "obs/control.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace paragraph::obs {

// Records one phase duration into the "time/<path>" histogram: the one
// store every timed phase lands in, whether a library scope or a served
// request's phase ("serve/req/parse").
void record_phase(const std::string& path, double dur_us);

// The phase profile as a view of a snapshot's "time/<path>" histograms:
// {"<path>": {"count": n, "total_ms": t, "mean_us": m, "min_us": lo,
//  "max_us": hi}, ...}, sorted by path, phases without samples skipped.
JsonValue profile_json(const MetricsSnapshot& snap);

class ScopedTimer {
 public:
  // `name` must outlive the scope (string literals / registry names).
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_ = false;
  std::size_t parent_path_len_ = 0;
  std::int64_t start_us_ = 0;
  const char* name_ = nullptr;
};

#define PARAGRAPH_OBS_CONCAT2(a, b) a##b
#define PARAGRAPH_OBS_CONCAT(a, b) PARAGRAPH_OBS_CONCAT2(a, b)
#define PARAGRAPH_TIMED_SCOPE(name) \
  ::paragraph::obs::ScopedTimer PARAGRAPH_OBS_CONCAT(paragraph_scope_, __LINE__)(name)

}  // namespace paragraph::obs
