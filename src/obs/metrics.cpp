#include "obs/metrics.h"

#include <algorithm>
#include <cstring>

#include "obs/flight_recorder.h"
#include "util/stats.h"

namespace paragraph::obs {

std::uint64_t Gauge::pack(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double Gauge::unpack(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void Histogram::record(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (samples_.size() < kMaxSamples)
    samples_.push_back(v);
  else
    samples_[(count_ - 1) % kMaxSamples] = v;  // overwrite the oldest
}

HistogramSummary Histogram::summary() const {
  std::vector<double> samples;
  HistogramSummary s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.count = count_;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
    s.samples_capped = count_ > samples_.size();
    samples = samples_;
  }
  if (s.count == 0) return s;
  s.mean = s.sum / static_cast<double>(s.count);
  const std::vector<double> q = util::percentiles(std::move(samples), {50.0, 95.0, 99.0});
  s.p50 = q[0];
  s.p95 = q[1];
  s.p99 = q[2];
  return s;
}

std::size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

JsonValue HistogramSummary::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("count", count);
  o.set("min", min);
  o.set("max", max);
  o.set("mean", mean);
  o.set("sum", sum);
  o.set("p50", p50);
  o.set("p95", p95);
  o.set("p99", p99);
  if (samples_capped) o.set("samples_capped", true);
  return o;
}

JsonValue MetricsSnapshot::to_json() const {
  JsonValue root = JsonValue::object();

  JsonValue counter_obj = JsonValue::object();
  for (const auto& [name, v] : counters)
    if (v != 0) counter_obj.set(name, v);
  root.set("counters", std::move(counter_obj));

  JsonValue gauge_obj = JsonValue::object();
  for (const auto& [name, v] : gauges) gauge_obj.set(name, v);
  root.set("gauges", std::move(gauge_obj));

  JsonValue histogram_obj = JsonValue::object();
  for (const auto& [name, s] : histograms) {
    if (s.count == 0) continue;
    histogram_obj.set(name, s.to_json());
  }
  root.set("histograms", std::move(histogram_obj));
  return root;
}

const HistogramSummary* MetricsSnapshot::histogram(const std::string& name) const {
  for (const auto& [n, s] : histograms)
    if (n == name) return &s;
  return nullptr;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::append_record(const std::string& series, JsonValue record) {
  if (FlightRecorder::instance().armed())
    FlightRecorder::instance().record(FlightEvent::Kind::kRecord, 0, series, record.dump());
  std::lock_guard<std::mutex> lock(mu_);
  series_[series].push_back(std::move(record));
}

MetricsSnapshot MetricsRegistry::collect(JsonValue* series) const {
  MetricsSnapshot snap;
  std::vector<const Histogram*> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      snap.histograms.emplace_back(name, HistogramSummary{});
      histograms.push_back(h.get());
    }
    if (series != nullptr) {
      *series = JsonValue::object();
      for (const auto& [name, records] : series_) {
        JsonValue arr = JsonValue::array();
        for (const JsonValue& r : records) arr.push_back(r);
        series->set(name, std::move(arr));
      }
    }
  }
  // Each summary selects quantiles over up to a full sample ring, so the
  // summaries run after the registry lock is released: instrument lookups
  // on other threads must not wait for them. The pointers stay valid
  // because instruments are never freed (reset() zeroes them in place).
  for (std::size_t i = 0; i < histograms.size(); ++i)
    snap.histograms[i].second = histograms[i]->summary();
  return snap;
}

MetricsSnapshot MetricsRegistry::snapshot() const { return collect(nullptr); }

JsonValue MetricsRegistry::to_json() const {
  JsonValue series;
  JsonValue root = collect(&series).to_json();
  root.set("series", std::move(series));
  return root;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  series_.clear();
}

}  // namespace paragraph::obs
