// Differentiable dense ops. Each returns a new Tensor whose backward
// closure propagates gradients to the inputs. Shapes are validated eagerly
// so graph-construction errors fail at the call site, not inside backward().
#pragma once

#include <vector>

#include "nn/tensor.h"

namespace paragraph::nn {

// C = A * B.
Tensor matmul(const Tensor& a, const Tensor& b);
// Elementwise; shapes must match.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
// A + broadcast of row-vector bias (1 x cols).
Tensor add_bias(const Tensor& a, const Tensor& bias);
// alpha * A (alpha is a compile-time constant of the graph, not trained).
Tensor scale(const Tensor& a, float alpha);
// Horizontal concatenation [A | B]; row counts must match.
Tensor concat_cols(const Tensor& a, const Tensor& b);
// Vertical concatenation; column counts must match. Undefined tensors in
// the list are skipped; at least one defined input is required.
Tensor concat_rows(const std::vector<Tensor>& ts);

Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float negative_slope = 0.2f);

// Each row scaled to unit L2 norm (GraphSage's final normalisation).
// Rows with norm < eps pass through unscaled.
Tensor row_l2_normalize(const Tensor& a, float eps = 1e-12f);

// Row i scaled by the constant coeffs[i] (e.g. GCN 1/c_ij, RGCN 1/|N_r|).
Tensor scale_rows(const Tensor& a, const std::vector<float>& coeffs);

// Sum of a non-empty list of same-shaped tensors.
Tensor sum_tensors(const std::vector<Tensor>& ts);

// Mean squared error against a constant target; returns a 1x1 tensor.
Tensor mse_loss(const Tensor& pred, const Matrix& target);

}  // namespace paragraph::nn
