#include "nn/matrix.h"

#include <cmath>

#include "runtime/thread_pool.h"
#include "util/strings.h"

namespace paragraph::nn {

namespace {
// Row-chunk grains: boundaries are a pure function of the matrix shape, so
// results are identical at any thread count (each chunk owns disjoint
// output rows). GEMM rows carry k*n flops each; elementwise rows are cheap.
constexpr std::size_t kGemmRowGrain = 32;
constexpr std::size_t kEltGrain = 16384;
}  // namespace

std::string Matrix::shape_str() const {
  return util::format("(%zu x %zu)", rows_, cols_);
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("gemm: inner dims mismatch " + a.shape_str() + " * " +
                                b.shape_str());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  Matrix c(m, n, 0.0f);
  // ikj order: the innermost loop is a contiguous axpy over B's row, which
  // the compiler vectorises. Chunks own disjoint rows of C.
  runtime::parallel_for("gemm", m, kGemmRowGrain, [&](std::size_t ib, std::size_t ie) {
    for (std::size_t i = ib; i < ie; ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = b.row(p);
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Matrix gemm_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("gemm_nt: inner dims mismatch " + a.shape_str() + " * " +
                                b.shape_str() + "^T");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = b.rows();
  Matrix c(m, k, 0.0f);
  runtime::parallel_for("gemm_nt", m, kGemmRowGrain, [&](std::size_t ib, std::size_t ie) {
    for (std::size_t i = ib; i < ie; ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b.row(p);
        float acc = 0.0f;
        for (std::size_t j = 0; j < n; ++j) acc += arow[j] * brow[j];
        crow[p] = acc;
      }
    }
  });
  return c;
}

Matrix gemm_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("gemm_tn: inner dims mismatch " + a.shape_str() + "^T * " +
                                b.shape_str());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  Matrix c(k, n, 0.0f);
  // Loop order is (p, i) so chunks own disjoint rows of C; per output
  // element the i-accumulation order matches the serial (i, p) loop, so the
  // result is bit-identical at any thread count.
  runtime::parallel_for("gemm_tn", k, kGemmRowGrain, [&](std::size_t pb, std::size_t pe) {
    for (std::size_t p = pb; p < pe; ++p) {
      float* crow = c.row(p);
      for (std::size_t i = 0; i < m; ++i) {
        const float av = a(i, p);
        if (av == 0.0f) continue;
        const float* brow = b.row(i);
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

void add_inplace(Matrix& dst, const Matrix& src) {
  if (!dst.same_shape(src))
    throw std::invalid_argument("add_inplace: shape mismatch " + dst.shape_str() + " += " +
                                src.shape_str());
  float* d = dst.data();
  const float* s = src.data();
  runtime::parallel_for("add", dst.size(), kEltGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) d[i] += s[i];
  });
}

void axpy_inplace(Matrix& dst, float alpha, const Matrix& src) {
  if (!dst.same_shape(src)) throw std::invalid_argument("axpy_inplace: shape mismatch");
  float* d = dst.data();
  const float* s = src.data();
  runtime::parallel_for("axpy", dst.size(), kEltGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) d[i] += alpha * s[i];
  });
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

}  // namespace paragraph::nn
