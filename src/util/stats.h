// Descriptive-statistics helpers shared by the evaluation and bench code.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace paragraph::util {

double mean(std::span<const double> v);
// Population standard deviation (ddof = 0); 0 for fewer than 2 samples.
double stddev(std::span<const double> v);
double min_of(std::span<const double> v);
double max_of(std::span<const double> v);
// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
// The same for several ascending p, selected on the one copy `v`: each
// selection searches only the part above the previous one. Throws
// std::invalid_argument on an empty `v` or a descending `ps`.
std::vector<double> percentiles(std::vector<double> v, std::initializer_list<double> ps);
// Pearson correlation; 0 when either side is constant.
double pearson(std::span<const double> a, std::span<const double> b);

}  // namespace paragraph::util
