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

double percentile(std::vector<double> v, double p) { return percentiles(std::move(v), {p})[0]; }

std::vector<double> percentiles(std::vector<double> v, std::initializer_list<double> ps) {
  if (v.empty()) throw std::invalid_argument("percentile: empty vector");
  if (!std::is_sorted(ps.begin(), ps.end()))
    throw std::invalid_argument("percentiles: p must ascend");
  const auto at = [&](std::size_t i) { return v.begin() + static_cast<std::ptrdiff_t>(i); };
  std::vector<double> out;
  out.reserve(ps.size());
  // Linear-time selection. v[from, end) always holds exactly the order
  // statistics from..n-1, and each selected v[k] is the k-th; so v[lo] is
  // placed by nth_element over v[from, end), and the hi-th order statistic
  // is the smallest value above it.
  std::size_t from = 0;
  for (const double p : ps) {
    const double idx = (p / 100.0) * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(idx));
    const auto hi = static_cast<std::size_t>(std::ceil(idx));
    const double frac = idx - static_cast<double>(lo);
    if (lo >= from) {
      std::nth_element(at(from), at(lo), v.end());
      from = lo + 1;
    }
    if (hi >= from) {
      std::iter_swap(at(hi), std::min_element(at(hi), v.end()));
      from = hi + 1;
    }
    out.push_back(v[lo] * (1.0 - frac) + v[hi] * frac);
  }
  return out;
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
