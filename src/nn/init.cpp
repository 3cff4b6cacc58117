#include "nn/init.h"

#include <cmath>

namespace paragraph::nn {

Matrix xavier_uniform(std::size_t rows, std::size_t cols, util::Rng& rng) {
  const double a = std::sqrt(6.0 / static_cast<double>(rows + cols));
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(-a, a));
  return m;
}

Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 0.0f); }

}  // namespace paragraph::nn
