#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace paragraph::util {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size()));
}

double min_of(std::span<const double> v) {
  if (v.empty()) throw std::invalid_argument("min_of: empty span");
  return *std::min_element(v.begin(), v.end());
}

double max_of(std::span<const double> v) {
  if (v.empty()) throw std::invalid_argument("max_of: empty span");
  return *std::max_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty vector");
  const double idx = (p / 100.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  // Linear-time selection: v[lo] becomes the lo-th order statistic, and
  // the smallest value in the partition above it is the hi-th.
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  if (hi != lo)
    std::iter_swap(v.begin() + static_cast<std::ptrdiff_t>(hi),
                   std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi), v.end()));
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("pearson: size mismatch");
  if (a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

}  // namespace paragraph::util
