#include "nn/matrix.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/rng.h"

namespace paragraph::nn {
namespace {

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(k, j);
  return c;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(m.row(0)[1], 7.0f);
}

TEST(Matrix, ConstructionFromDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(Matrix, GemmMatchesNaive) {
  util::Rng rng(7);
  const Matrix a = paragraph::testing::random_matrix(5, 7, rng);
  const Matrix b = paragraph::testing::random_matrix(7, 3, rng);
  EXPECT_LT(max_abs_diff(gemm(a, b), naive_gemm(a, b)), 1e-5f);
}

TEST(Matrix, GemmShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(gemm(a, b), std::invalid_argument);
}

TEST(Matrix, GemmNtMatchesTransposedGemm) {
  util::Rng rng(11);
  const Matrix a = paragraph::testing::random_matrix(4, 6, rng);
  const Matrix b = paragraph::testing::random_matrix(5, 6, rng);
  EXPECT_LT(max_abs_diff(gemm_nt(a, b), naive_gemm(a, transpose(b))), 1e-5f);
}

TEST(Matrix, GemmTnMatchesTransposedGemm) {
  util::Rng rng(13);
  const Matrix a = paragraph::testing::random_matrix(6, 4, rng);
  const Matrix b = paragraph::testing::random_matrix(6, 5, rng);
  EXPECT_LT(max_abs_diff(gemm_tn(a, b), naive_gemm(transpose(a), b)), 1e-5f);
}

TEST(Matrix, TransposeRoundTrip) {
  util::Rng rng(17);
  const Matrix a = paragraph::testing::random_matrix(3, 8, rng);
  EXPECT_LT(max_abs_diff(transpose(transpose(a)), a), 1e-7f);
}

TEST(Matrix, AddAndAxpyInplace) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  axpy_inplace(a, -0.5f, b);
  EXPECT_FLOAT_EQ(a(1, 1), 2.0f);
  Matrix c(2, 3);
  EXPECT_THROW(add_inplace(a, c), std::invalid_argument);
  EXPECT_THROW(axpy_inplace(a, 1.0f, c), std::invalid_argument);
}

TEST(Matrix, GemmZeroSkipStillCorrect) {
  // The gemm kernel skips zero multipliers; verify the result is identical.
  util::Rng rng(23);
  Matrix a = paragraph::testing::random_matrix(4, 4, rng);
  a(0, 0) = 0.0f;
  a(2, 3) = 0.0f;
  const Matrix b = paragraph::testing::random_matrix(4, 4, rng);
  EXPECT_LT(max_abs_diff(gemm(a, b), naive_gemm(a, b)), 1e-5f);
}

}  // namespace
}  // namespace paragraph::nn
