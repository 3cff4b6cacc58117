// Numerical gradient checks for every differentiable op in nn/ops.h and
// nn/graph_ops.h, plus structural tests of the tape (diamonds, scalars).
#include <gtest/gtest.h>

#include "nn/graph_ops.h"
#include "nn/ops.h"
#include "test_util.h"

namespace paragraph::nn {
namespace {

using paragraph::testing::check_gradient;
using paragraph::testing::random_matrix;

Matrix ones_target(std::size_t r, std::size_t c) { return Matrix(r, c, 0.3f); }

TEST(Autograd, BackwardRequiresScalar) {
  Tensor t(Matrix(2, 2, 1.0f), true);
  EXPECT_THROW(t.backward(), std::logic_error);
}

TEST(Autograd, ItemRequiresScalar) {
  Tensor t(Matrix(2, 1, 1.0f));
  EXPECT_THROW(t.item(), std::logic_error);
  Tensor s(Matrix(1, 1, std::vector<float>{4.5f}));
  EXPECT_FLOAT_EQ(s.item(), 4.5f);
}

TEST(Autograd, MatmulGradient) {
  util::Rng rng(1);
  Tensor a(random_matrix(3, 4, rng), true);
  Tensor b(random_matrix(4, 2, rng), true);
  check_gradient(a, [&](const Tensor& x) { return mse_loss(matmul(x, b), ones_target(3, 2)); });
  check_gradient(b, [&](const Tensor& x) { return mse_loss(matmul(a, x), ones_target(3, 2)); });
}

TEST(Autograd, AddSubMulGradients) {
  util::Rng rng(2);
  Tensor a(random_matrix(3, 3, rng), true);
  Tensor b(random_matrix(3, 3, rng), true);
  check_gradient(a, [&](const Tensor& x) { return mse_loss(add(x, b), ones_target(3, 3)); });
  check_gradient(a, [&](const Tensor& x) { return mse_loss(sub(x, b), ones_target(3, 3)); });
  check_gradient(a, [&](const Tensor& x) { return mse_loss(mul(x, b), ones_target(3, 3)); });
  check_gradient(b, [&](const Tensor& x) { return mse_loss(mul(a, x), ones_target(3, 3)); });
}

TEST(Autograd, AddBiasGradient) {
  util::Rng rng(3);
  Tensor a(random_matrix(4, 3, rng), true);
  Tensor bias(random_matrix(1, 3, rng), true);
  check_gradient(bias,
                 [&](const Tensor& x) { return mse_loss(add_bias(a, x), ones_target(4, 3)); });
  check_gradient(a,
                 [&](const Tensor& x) { return mse_loss(add_bias(x, bias), ones_target(4, 3)); });
}

TEST(Autograd, ScaleGradient) {
  util::Rng rng(4);
  Tensor a(random_matrix(2, 5, rng), true);
  check_gradient(a, [&](const Tensor& x) { return mse_loss(scale(x, -1.7f), ones_target(2, 5)); });
}

TEST(Autograd, ConcatColsGradient) {
  util::Rng rng(5);
  Tensor a(random_matrix(3, 2, rng), true);
  Tensor b(random_matrix(3, 4, rng), true);
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(concat_cols(x, b), ones_target(3, 6));
  });
  check_gradient(b, [&](const Tensor& x) {
    return mse_loss(concat_cols(a, x), ones_target(3, 6));
  });
}

TEST(Autograd, ConcatRowsGradient) {
  util::Rng rng(6);
  Tensor a(random_matrix(2, 3, rng), true);
  Tensor b(random_matrix(4, 3, rng), true);
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(concat_rows({x, b}), ones_target(6, 3));
  });
  check_gradient(b, [&](const Tensor& x) {
    return mse_loss(concat_rows({a, x}), ones_target(6, 3));
  });
}

TEST(Autograd, ConcatRowsSkipsUndefined) {
  Tensor a(Matrix(2, 2, 1.0f));
  Tensor undefined;
  const Tensor c = concat_rows({undefined, a});
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_THROW(concat_rows({undefined}), std::invalid_argument);
}

TEST(Autograd, ActivationGradients) {
  util::Rng rng(7);
  Tensor a(random_matrix(4, 4, rng), true);
  check_gradient(a, [&](const Tensor& x) { return mse_loss(leaky_relu(x, 0.2f), ones_target(4, 4)); });
}

TEST(Autograd, ReluForwardAndSubgradient) {
  Tensor a(Matrix(1, 3, std::vector<float>{-1.0f, 0.5f, 2.0f}), true);
  const Tensor r = relu(a);
  EXPECT_FLOAT_EQ(r.value()(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.value()(0, 1), 0.5f);
  Tensor loss = mse_loss(r, Matrix(1, 3, 0.0f));
  loss.backward();
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 0.0f);  // negative side: zero gradient
  EXPECT_GT(a.grad()(0, 1), 0.0f);
}

TEST(Autograd, RowL2NormalizeGradient) {
  util::Rng rng(8);
  Tensor a(random_matrix(3, 4, rng), true);
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(row_l2_normalize(x), ones_target(3, 4));
  });
}

TEST(Autograd, RowL2NormalizeUnitNorm) {
  util::Rng rng(9);
  Tensor a(random_matrix(5, 6, rng));
  const Tensor n = row_l2_normalize(a);
  for (std::size_t i = 0; i < n.rows(); ++i) {
    float s = 0.0f;
    for (std::size_t j = 0; j < n.cols(); ++j) s += n.value()(i, j) * n.value()(i, j);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Autograd, ScaleRowsGradient) {
  util::Rng rng(10);
  Tensor a(random_matrix(3, 4, rng), true);
  const std::vector<float> coeffs = {0.5f, -2.0f, 1.5f};
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(scale_rows(x, coeffs), ones_target(3, 4));
  });
  EXPECT_THROW(scale_rows(a, {1.0f}), std::invalid_argument);
}

TEST(Autograd, MseLossValue) {
  Tensor p(Matrix(1, 2, std::vector<float>{1.0f, 3.0f}));
  const Matrix t(1, 2, std::vector<float>{0.0f, 1.0f});
  EXPECT_FLOAT_EQ(mse_loss(p, t).item(), (1.0f + 4.0f) / 2.0f);
}

TEST(Autograd, GatherRowsGradient) {
  util::Rng rng(12);
  Tensor a(random_matrix(4, 3, rng), true);
  const std::vector<std::int32_t> idx = {2, 0, 2, 3, 1};
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(gather_rows(x, idx), ones_target(5, 3));
  });
}

TEST(Autograd, GatherRowsOutOfRangeThrows) {
  Tensor a(Matrix(2, 2, 1.0f));
  EXPECT_THROW(gather_rows(a, std::vector<std::int32_t>{0, 2}), std::out_of_range);
  EXPECT_THROW(gather_rows(a, std::vector<std::int32_t>{-1}), std::out_of_range);
}

TEST(Autograd, ScatterAddRowsGradient) {
  util::Rng rng(13);
  Tensor a(random_matrix(5, 3, rng), true);
  const std::vector<std::int32_t> idx = {1, 0, 1, 3, 3};
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(scatter_add_rows(x, idx, 4), ones_target(4, 3));
  });
}

TEST(Autograd, ScatterAddAccumulates) {
  Tensor a(Matrix(3, 1, std::vector<float>{1.0f, 2.0f, 4.0f}));
  const Tensor s = scatter_add_rows(a, std::vector<std::int32_t>{0, 0, 1}, 2);
  EXPECT_FLOAT_EQ(s.value()(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.value()(1, 0), 4.0f);
}

TEST(Autograd, SegmentSoftmaxGradient) {
  util::Rng rng(14);
  Tensor logits(random_matrix(6, 1, rng), true);
  SegmentIndex seg;
  seg.offsets = {0, 2, 2, 5, 6};  // includes an empty segment
  check_gradient(logits, [&](const Tensor& x) {
    return mse_loss(segment_softmax(x, seg), ones_target(6, 1));
  });
}

TEST(Autograd, SegmentSoftmaxSumsToOne) {
  Tensor logits(Matrix(5, 1, std::vector<float>{1.0f, 2.0f, -1.0f, 0.0f, 3.0f}));
  SegmentIndex seg;
  seg.offsets = {0, 3, 5};
  const Tensor a = segment_softmax(logits, seg);
  EXPECT_NEAR(a.value()(0, 0) + a.value()(1, 0) + a.value()(2, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(a.value()(3, 0) + a.value()(4, 0), 1.0f, 1e-6f);
}

TEST(Autograd, SegmentSoftmaxNumericallyStable) {
  Tensor logits(Matrix(2, 1, std::vector<float>{1000.0f, 1002.0f}));
  SegmentIndex seg;
  seg.offsets = {0, 2};
  const Tensor a = segment_softmax(logits, seg);
  EXPECT_FALSE(std::isnan(a.value()(0, 0)));
  EXPECT_NEAR(a.value()(0, 0) + a.value()(1, 0), 1.0f, 1e-6f);
}

TEST(Autograd, ScaleRowsByGradient) {
  util::Rng rng(15);
  Tensor a(random_matrix(4, 3, rng), true);
  Tensor w(random_matrix(4, 1, rng), true);
  check_gradient(a, [&](const Tensor& x) {
    return mse_loss(scale_rows_by(x, w), ones_target(4, 3));
  });
  check_gradient(w, [&](const Tensor& x) {
    return mse_loss(scale_rows_by(a, x), ones_target(4, 3));
  });
}

TEST(Autograd, DiamondGraphAccumulatesGradients) {
  // loss = mse(a + a) -> d/da flows through two paths.
  Tensor a(Matrix(2, 2, 1.0f), true);
  Tensor loss = mse_loss(add(a, a), Matrix(2, 2, 0.0f));
  loss.backward();
  // d/da mse(2a, 0) = 2 * (2a) * 2 / n = 8a/4 = 2 per element when a=1.
  EXPECT_NEAR(a.grad()(0, 0), 2.0f, 1e-5f);
}

TEST(Autograd, NoGradThroughConstants) {
  Tensor a(Matrix(2, 2, 1.0f), false);
  Tensor b(Matrix(2, 2, 2.0f), true);
  Tensor loss = mse_loss(mul(a, b), Matrix(2, 2, 0.0f));
  loss.backward();
  EXPECT_GT(std::abs(b.grad()(0, 0)), 0.0f);
  // Constant leaf keeps a zero gradient buffer.
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 0.0f);
}

TEST(Autograd, IndexCounts) {
  const auto counts = index_counts({0, 1, 1, 3}, 4);
  EXPECT_FLOAT_EQ(counts[0], 1.0f);
  EXPECT_FLOAT_EQ(counts[1], 2.0f);
  EXPECT_FLOAT_EQ(counts[2], 0.0f);
  EXPECT_THROW(index_counts({5}, 4), std::out_of_range);
}

}  // namespace
}  // namespace paragraph::nn
