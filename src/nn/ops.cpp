#include "nn/ops.h"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace paragraph::nn {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.value().same_shape(b.value()))
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + a.value().shape_str() +
                                " vs " + b.value().shape_str());
}

// Chunk grains for elementwise (flat index) and per-row loops. Chunks write
// disjoint ranges, so every op here is bit-identical at any thread count.
constexpr std::size_t kEltGrain = 16384;
constexpr std::size_t kRowGrain = 256;

template <typename F>
void par_elements(std::size_t n, F&& body) {
  runtime::parallel_for("nn.elt", n, kEltGrain, std::forward<F>(body));
}

template <typename F>
void par_rows(std::size_t n, F&& body) {
  runtime::parallel_for("nn.rows", n, kRowGrain, std::forward<F>(body));
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (obs::enabled()) {
    static obs::Counter& calls = obs::MetricsRegistry::instance().counter("nn.matmul.calls");
    static obs::Counter& flops = obs::MetricsRegistry::instance().counter("nn.matmul.flops");
    calls.add();
    flops.add(2ull * a.rows() * a.cols() * b.cols());
  }
  Matrix out = gemm(a.value(), b.value());
  return Tensor::from_op(std::move(out), {a, b}, [a, b](const Matrix& g) {
    a.accumulate_grad(gemm_nt(g, b.value()));
    b.accumulate_grad(gemm_tn(a.value(), g));
  });
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Matrix out = a.value();
  add_inplace(out, b.value());
  return Tensor::from_op(std::move(out), {a, b}, [a, b](const Matrix& g) {
    a.accumulate_grad(g);
    b.accumulate_grad(g);
  });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Matrix out = a.value();
  axpy_inplace(out, -1.0f, b.value());
  return Tensor::from_op(std::move(out), {a, b}, [a, b](const Matrix& g) {
    a.accumulate_grad(g);
    Matrix ng = g;
    par_elements(ng.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ng.data()[i] = -ng.data()[i];
    });
    b.accumulate_grad(ng);
  });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Matrix out = a.value();
  par_elements(out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out.data()[i] *= b.value().data()[i];
  });
  return Tensor::from_op(std::move(out), {a, b}, [a, b](const Matrix& g) {
    Matrix ga = g;
    par_elements(ga.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ga.data()[i] *= b.value().data()[i];
    });
    a.accumulate_grad(ga);
    Matrix gb = g;
    par_elements(gb.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) gb.data()[i] *= a.value().data()[i];
    });
    b.accumulate_grad(gb);
  });
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  if (bias.rows() != 1 || bias.cols() != a.cols())
    throw std::invalid_argument("add_bias: bias must be 1 x cols of input");
  Matrix out = a.value();
  par_rows(out.rows(), [&](std::size_t lo, std::size_t hi) {
    const float* b = bias.value().row(0);
    for (std::size_t i = lo; i < hi; ++i) {
      float* r = out.row(i);
      for (std::size_t j = 0; j < out.cols(); ++j) r[j] += b[j];
    }
  });
  return Tensor::from_op(std::move(out), {a, bias}, [a, bias](const Matrix& g) {
    a.accumulate_grad(g);
    Matrix gb(1, g.cols(), 0.0f);
    // Column chunks: each chunk reduces its own columns over all rows in
    // ascending row order, matching the serial accumulation per element.
    runtime::parallel_for("nn.add_bias_grad", g.cols(), 16, [&](std::size_t jlo, std::size_t jhi) {
      for (std::size_t i = 0; i < g.rows(); ++i) {
        const float* r = g.row(i);
        for (std::size_t j = jlo; j < jhi; ++j) gb(0, j) += r[j];
      }
    });
    bias.accumulate_grad(gb);
  });
}

Tensor scale(const Tensor& a, float alpha) {
  Matrix out = a.value();
  par_elements(out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out.data()[i] *= alpha;
  });
  return Tensor::from_op(std::move(out), {a}, [a, alpha](const Matrix& g) {
    Matrix ga = g;
    par_elements(ga.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ga.data()[i] *= alpha;
    });
    a.accumulate_grad(ga);
  });
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("concat_cols: row counts differ: " + a.value().shape_str() +
                                " vs " + b.value().shape_str());
  const std::size_t ca = a.cols();
  const std::size_t cb = b.cols();
  Matrix out(a.rows(), ca + cb);
  par_rows(a.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* r = out.row(i);
      const float* ra = a.value().row(i);
      const float* rb = b.value().row(i);
      for (std::size_t j = 0; j < ca; ++j) r[j] = ra[j];
      for (std::size_t j = 0; j < cb; ++j) r[ca + j] = rb[j];
    }
  });
  return Tensor::from_op(std::move(out), {a, b}, [a, b, ca, cb](const Matrix& g) {
    Matrix ga(g.rows(), ca);
    Matrix gb(g.rows(), cb);
    par_rows(g.rows(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const float* r = g.row(i);
        for (std::size_t j = 0; j < ca; ++j) ga(i, j) = r[j];
        for (std::size_t j = 0; j < cb; ++j) gb(i, j) = r[ca + j];
      }
    });
    a.accumulate_grad(ga);
    b.accumulate_grad(gb);
  });
}

Tensor concat_rows(const std::vector<Tensor>& ts) {
  std::vector<Tensor> inputs;
  for (const Tensor& t : ts)
    if (t.defined()) inputs.push_back(t);
  if (inputs.empty()) throw std::invalid_argument("concat_rows: no defined inputs");
  const std::size_t cols = inputs[0].cols();
  std::size_t rows = 0;
  for (const Tensor& t : inputs) {
    if (t.cols() != cols) throw std::invalid_argument("concat_rows: column mismatch");
    rows += t.rows();
  }
  Matrix out(rows, cols);
  std::size_t r = 0;
  for (const Tensor& t : inputs) {
    for (std::size_t i = 0; i < t.rows(); ++i, ++r) {
      const float* s = t.value().row(i);
      float* d = out.row(r);
      for (std::size_t j = 0; j < cols; ++j) d[j] = s[j];
    }
  }
  return Tensor::from_op(std::move(out), inputs, [inputs, cols](const Matrix& g) {
    std::size_t r = 0;
    for (const Tensor& t : inputs) {
      Matrix gt(t.rows(), cols);
      for (std::size_t i = 0; i < t.rows(); ++i, ++r) {
        const float* s = g.row(r);
        float* d = gt.row(i);
        for (std::size_t j = 0; j < cols; ++j) d[j] = s[j];
      }
      t.accumulate_grad(gt);
    }
  });
}

Tensor relu(const Tensor& a) {
  Matrix out = a.value();
  par_elements(out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out.data()[i] = std::max(0.0f, out.data()[i]);
  });
  return Tensor::from_op(std::move(out), {a}, [a](const Matrix& g) {
    Matrix ga = g;
    par_elements(ga.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        if (a.value().data()[i] <= 0.0f) ga.data()[i] = 0.0f;
    });
    a.accumulate_grad(ga);
  });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  Matrix out = a.value();
  par_elements(out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float v = out.data()[i];
      out.data()[i] = v > 0.0f ? v : negative_slope * v;
    }
  });
  return Tensor::from_op(std::move(out), {a}, [a, negative_slope](const Matrix& g) {
    Matrix ga = g;
    par_elements(ga.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        if (a.value().data()[i] <= 0.0f) ga.data()[i] *= negative_slope;
    });
    a.accumulate_grad(ga);
  });
}

Tensor row_l2_normalize(const Tensor& a, float eps) {
  const Matrix& x = a.value();
  std::vector<float> norms(x.rows());
  Matrix out(x.rows(), x.cols());
  par_rows(x.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* r = x.row(i);
      float s = 0.0f;
      for (std::size_t j = 0; j < x.cols(); ++j) s += r[j] * r[j];
      const float n = std::sqrt(s);
      norms[i] = n;
      const float inv = n < eps ? 1.0f : 1.0f / n;
      float* o = out.row(i);
      for (std::size_t j = 0; j < x.cols(); ++j) o[j] = r[j] * inv;
    }
  });
  return Tensor::from_op(std::move(out), {a},
                         [a, norms = std::move(norms), eps](const Matrix& g) {
    // d/dx (x/||x||) = (I - y y^T)/||x|| with y = x/||x||.
    const Matrix& x = a.value();
    Matrix ga(g.rows(), g.cols());
    par_rows(g.rows(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const float n = norms[i];
        const float* gr = g.row(i);
        const float* xr = x.row(i);
        float* gar = ga.row(i);
        if (n < eps) {
          for (std::size_t j = 0; j < g.cols(); ++j) gar[j] = gr[j];
          continue;
        }
        float dot = 0.0f;  // g . y
        for (std::size_t j = 0; j < g.cols(); ++j) dot += gr[j] * xr[j] / n;
        for (std::size_t j = 0; j < g.cols(); ++j)
          gar[j] = (gr[j] - dot * xr[j] / n) / n;
      }
    });
    a.accumulate_grad(ga);
  });
}

Tensor scale_rows(const Tensor& a, const std::vector<float>& coeffs) {
  if (coeffs.size() != a.rows())
    throw std::invalid_argument("scale_rows: coeff count must equal row count");
  Matrix out = a.value();
  par_rows(out.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* r = out.row(i);
      for (std::size_t j = 0; j < out.cols(); ++j) r[j] *= coeffs[i];
    }
  });
  return Tensor::from_op(std::move(out), {a}, [a, coeffs](const Matrix& g) {
    Matrix ga = g;
    par_rows(ga.rows(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        float* r = ga.row(i);
        for (std::size_t j = 0; j < ga.cols(); ++j) r[j] *= coeffs[i];
      }
    });
    a.accumulate_grad(ga);
  });
}

Tensor sum_tensors(const std::vector<Tensor>& ts) {
  if (ts.empty()) throw std::invalid_argument("sum_tensors: empty list");
  Tensor acc = ts[0];
  for (std::size_t i = 1; i < ts.size(); ++i) acc = add(acc, ts[i]);
  return acc;
}

Tensor mse_loss(const Tensor& pred, const Matrix& target) {
  if (!pred.value().same_shape(target))
    throw std::invalid_argument("mse_loss: shape mismatch " + pred.value().shape_str() + " vs " +
                                target.shape_str());
  const std::size_t n = pred.value().size();
  if (n == 0) throw std::invalid_argument("mse_loss: empty prediction");
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred.value().data()[i] - target.data()[i];
    acc += d * d;
  }
  Matrix out(1, 1, std::vector<float>{static_cast<float>(acc / static_cast<double>(n))});
  return Tensor::from_op(std::move(out), {pred}, [pred, target, n](const Matrix& g) {
    const float go = g(0, 0);
    Matrix gp(pred.rows(), pred.cols());
    const float c = 2.0f * go / static_cast<float>(n);
    par_elements(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        gp.data()[i] = c * (pred.value().data()[i] - target.data()[i]);
    });
    pred.accumulate_grad(gp);
  });
}

}  // namespace paragraph::nn
