// Weight initialisers.
#pragma once

#include "nn/matrix.h"
#include "util/rng.h"

namespace paragraph::nn {

// Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
Matrix xavier_uniform(std::size_t rows, std::size_t cols, util::Rng& rng);

Matrix zeros(std::size_t rows, std::size_t cols);

}  // namespace paragraph::nn
