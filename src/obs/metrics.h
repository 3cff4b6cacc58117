// Process-wide metrics registry: counters, gauges, histograms with
// percentile summaries, and named record series (e.g. per-epoch training
// stats), all exportable as one JSON document.
//
// Lookup by name takes a mutex, so hot paths cache the returned reference
// (registered instruments are never deallocated; reset() zeroes values in
// place, keeping cached references valid):
//
//   if (obs::enabled()) {
//     static obs::Counter& calls = obs::MetricsRegistry::instance().counter("nn.matmul.calls");
//     calls.add();
//   }
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/control.h"
#include "obs/json.h"

namespace paragraph::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  double value() const { return unpack(bits_.load(std::memory_order_relaxed)); }
  void reset() { set(0.0); }

 private:
  static std::uint64_t pack(double v);
  static double unpack(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

struct HistogramSummary {
  std::size_t count = 0;
  double min = 0.0, max = 0.0, mean = 0.0, sum = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  // True once the histogram has seen more samples than its buffer holds;
  // count/sum/min/max remain exact, percentiles cover the most recent
  // samples (the buffer is a ring that overwrites the oldest).
  bool samples_capped = false;

  // {"count": n, "min": ..., "p50": ..., "p99": ...}; adds
  // "samples_capped" only when set. The shape every metrics/stats
  // document uses for one histogram.
  JsonValue to_json() const;
};

class Histogram {
 public:
  void record(double v);
  HistogramSummary summary() const;
  std::size_t count() const;
  void reset();

 private:
  static constexpr std::size_t kMaxSamples = 1 << 20;
  mutable std::mutex mu_;
  std::vector<double> samples_;  // ring of the last kMaxSamples values
  std::size_t count_ = 0;
  double sum_ = 0.0, min_ = 0.0, max_ = 0.0;
};

// One point-in-time view of every registered instrument. The instrument
// set, counter and gauge values are read in a single hold of the registry
// lock, so a reader racing concurrent writers can never observe a torn or
// half-registered set (the serve daemon's `stats` admin verb reads this on
// its I/O loop while the worker keeps writing). Histogram summaries are
// taken just after the lock is released, each under its histogram's own
// lock. A snapshot is consistent at instrument granularity: every entry
// reflects some value that instrument actually held during the call.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;

  // {"counters": {...}, "gauges": {...}, "histograms": {...}} with the
  // same idle-instrument filtering as MetricsRegistry::to_json: zero
  // counters and empty histograms are skipped, gauges always emit.
  JsonValue to_json() const;
  // Lookup by exact name; nullptr when absent.
  const HistogramSummary* histogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Point-in-time snapshot of all counters/gauges/histogram summaries
  // (series excluded — they are unbounded). Safe against concurrent
  // writers and concurrent instrument registration; holds the registry
  // lock only to list instruments, not to summarise histograms.
  MetricsSnapshot snapshot() const;

  // Appends a JSON object to the named series (per-epoch records etc.).
  void append_record(const std::string& series, JsonValue record);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: summary},
  //  "series": {name: [...]}}  — instruments with no activity are skipped.
  JsonValue to_json() const;

  // Zeroes every instrument and clears series without deallocating, so
  // references cached by hot paths stay valid.
  void reset();

 private:
  MetricsRegistry() = default;
  // Core of snapshot()/to_json(): also copies the series into `*series`
  // under the same hold of mu_ when `series` is not null.
  MetricsSnapshot collect(JsonValue* series) const;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::vector<JsonValue>> series_;
};

}  // namespace paragraph::obs
