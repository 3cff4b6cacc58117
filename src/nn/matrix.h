// Dense row-major float32 matrix plus the handful of BLAS-like kernels the
// autograd engine is built on. Kernels run on the deterministic parallel
// runtime (src/runtime): row chunks are a pure function of the shape, so
// results are bit-identical at any thread count, and with --threads 1 the
// loops run inline exactly as the original serial code (see DESIGN.md §7).
// Compiled with -O3 -march=native the inner loops auto-vectorise.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/memory.h"

namespace paragraph::nn {

// Matrix buffers dominate the process heap (tensor values, gradients,
// optimizer state), so every construction/destruction reports its bytes
// to obs::MemTracker when instrumentation is on. `tracked_bytes_`
// remembers what this object registered, so a buffer allocated while
// tracking was enabled is un-counted exactly once even if the flag flips
// before the free; when disabled the hooks cost one relaxed load plus a
// branch and perform no atomic RMW (guarded by tests/memory_obs_test.cpp).
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    track_alloc();
  }
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    if (data_.size() != rows_ * cols_)
      throw std::invalid_argument("Matrix: data size does not match shape");
    track_alloc();
  }

  Matrix(const Matrix& o) : rows_(o.rows_), cols_(o.cols_), data_(o.data_) { track_alloc(); }
  Matrix(Matrix&& o) noexcept
      : rows_(o.rows_), cols_(o.cols_), data_(std::move(o.data_)),
        tracked_bytes_(o.tracked_bytes_) {
    o.rows_ = o.cols_ = 0;
    o.tracked_bytes_ = 0;
  }
  Matrix& operator=(const Matrix& o) {
    if (this != &o) {
      track_free();
      rows_ = o.rows_;
      cols_ = o.cols_;
      data_ = o.data_;
      track_alloc();
    }
    return *this;
  }
  Matrix& operator=(Matrix&& o) noexcept {
    if (this != &o) {
      track_free();
      rows_ = o.rows_;
      cols_ = o.cols_;
      data_ = std::move(o.data_);
      tracked_bytes_ = o.tracked_bytes_;
      o.rows_ = o.cols_ = 0;
      o.tracked_bytes_ = 0;
    }
    return *this;
  }
  ~Matrix() { track_free(); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  float operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t i) { return data_.data() + i * cols_; }
  const float* row(std::size_t i) const { return data_.data() + i * cols_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  bool same_shape(const Matrix& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }
  std::string shape_str() const;

 private:
  void track_alloc() {
    if (!obs::enabled()) return;
    const std::size_t bytes = data_.capacity() * sizeof(float);
    if (bytes == 0) return;
    tracked_bytes_ = bytes;
    obs::matrix_alloc_hook(bytes);
  }
  void track_free() {
    if (tracked_bytes_ != 0) {
      obs::matrix_free_hook(tracked_bytes_);
      tracked_bytes_ = 0;
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
  std::size_t tracked_bytes_ = 0;  // bytes registered with MemTracker, 0 if none
};

// C = A(m×k) * B(k×n)
Matrix gemm(const Matrix& a, const Matrix& b);
// C = A(m×n) * B(k×n)^T  -> (m×k)
Matrix gemm_nt(const Matrix& a, const Matrix& b);
// C = A(m×k)^T * B(m×n)  -> (k×n)
Matrix gemm_tn(const Matrix& a, const Matrix& b);

// dst += src (same shape)
void add_inplace(Matrix& dst, const Matrix& src);
// dst += alpha * src
void axpy_inplace(Matrix& dst, float alpha, const Matrix& src);

Matrix transpose(const Matrix& a);

// Largest elementwise |a - b|, used by tests and gradient checking.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace paragraph::nn
