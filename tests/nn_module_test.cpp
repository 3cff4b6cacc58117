#include <gtest/gtest.h>

#include "nn/init.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "test_util.h"

namespace paragraph::nn {
namespace {

TEST(Init, XavierBounds) {
  util::Rng rng(1);
  const Matrix m = xavier_uniform(10, 20, rng);
  const double bound = std::sqrt(6.0 / 30.0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound + 1e-6);
  }
}

TEST(Linear, ShapesAndParams) {
  util::Rng rng(3);
  Linear lin(4, 7, rng);
  EXPECT_EQ(lin.parameters().size(), 2u);
  EXPECT_EQ(lin.num_parameters(), 4u * 7u + 7u);
  Tensor x(Matrix(5, 4, 1.0f));
  const Tensor y = lin.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 7u);
}

TEST(Mlp, DepthAndDims) {
  util::Rng rng(4);
  Mlp mlp({8, 16, 16, 1}, rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  Tensor x(Matrix(2, 8, 0.5f));
  const Tensor y = mlp.forward(x);
  EXPECT_EQ(y.cols(), 1u);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
}

TEST(Optim, AdamConvergesFasterThanSgdOnIllConditioned) {
  util::Rng rng(6);
  // y = 100*x0 + 0.1*x1; ill-conditioned for plain SGD.
  auto make_data = [](Matrix& x, Matrix& y) {
    x = Matrix(16, 2);
    y = Matrix(16, 1);
    util::Rng r(9);
    for (int i = 0; i < 16; ++i) {
      x(i, 0) = static_cast<float>(r.uniform(-1, 1));
      x(i, 1) = static_cast<float>(r.uniform(-1, 1));
      y(i, 0) = 0.9f * x(i, 0) + 0.1f * x(i, 1);
    }
  };
  Matrix x, y;
  make_data(x, y);
  Tensor xt(x);
  Linear lin(2, 1, rng);
  Adam opt(lin.parameters(), 0.05f);
  float last = 1e9f;
  for (int it = 0; it < 300; ++it) {
    Tensor loss = mse_loss(lin.forward(xt), y);
    opt.zero_grad();
    loss.backward();
    opt.step();
    last = loss.item();
  }
  EXPECT_LT(last, 1e-5f);
}

TEST(Optim, ZeroGradClearsAccumulation) {
  util::Rng rng(7);
  Linear lin(2, 2, rng);
  Adam opt(lin.parameters(), 0.01f);
  Tensor x(Matrix(3, 2, 1.0f));
  Tensor loss = mse_loss(lin.forward(x), Matrix(3, 2, 0.0f));
  loss.backward();
  const float g = lin.weight().grad()(0, 0);
  EXPECT_NE(g, 0.0f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(lin.weight().grad()(0, 0), 0.0f);
}

TEST(Optim, ClipGradNorm) {
  Tensor p(Matrix(1, 2, std::vector<float>{0.0f, 0.0f}), true);
  p.accumulate_grad(Matrix(1, 2, std::vector<float>{3.0f, 4.0f}));  // norm 5
  const float pre = clip_grad_norm({p}, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(p.grad()(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad()(0, 1), 0.8f, 1e-5f);
  // Below the limit: untouched.
  const float pre2 = clip_grad_norm({p}, 10.0f);
  EXPECT_NEAR(pre2, 1.0f, 1e-5f);
  EXPECT_NEAR(p.grad()(0, 1), 0.8f, 1e-5f);
}

TEST(Optim, DeterministicGivenSeed) {
  auto run = [] {
    util::Rng rng(11);
    Linear lin(3, 3, rng);
    Adam opt(lin.parameters(), 0.01f);
    Tensor x(Matrix(4, 3, 0.7f));
    for (int i = 0; i < 10; ++i) {
      Tensor loss = mse_loss(lin.forward(x), Matrix(4, 3, 0.1f));
      opt.zero_grad();
      loss.backward();
      opt.step();
    }
    return lin.weight().value()(1, 1);
  };
  EXPECT_FLOAT_EQ(run(), run());
}

}  // namespace
}  // namespace paragraph::nn
