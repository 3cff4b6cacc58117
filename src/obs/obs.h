// Umbrella header for the observability layer: structured logging
// (obs/log.h), metrics registry (obs/metrics.h), hierarchical scoped
// profiling (obs/profile.h), Chrome trace export (obs/trace.h), memory
// telemetry (obs/memory.h), distribution sketches + drift scoring
// (obs/sketch.h), and the crash flight recorder (obs/flight_recorder.h).
//
// Typical CLI wiring:
//   obs::init_from_env();                 // PARAGRAPH_LOG / PARAGRAPH_OBS
//   obs::set_enabled(true);               // turn instrumentation on
//   obs::TraceCollector::instance().set_enabled(true);
//   ... run ...
//   auto& registry = obs::MetricsRegistry::instance();
//   obs::JsonValue doc = registry.to_json();
//   doc.set("profile", obs::profile_json(registry.snapshot()));
//   util::try_write_file_atomic("metrics.json", doc.dump() + '\n');
//   obs::TraceCollector::instance().write_json("trace.json");
#pragma once

#include "obs/control.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sketch.h"
#include "obs/trace.h"
