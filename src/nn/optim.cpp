#include "nn/optim.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace paragraph::nn {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2, float eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols(), 0.0f);
    v_.emplace_back(p.value().rows(), p.value().cols(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    auto& p = params_[k];
    const Matrix& g = p.grad();
    float* w = p.mutable_value().data();
    const float* gd = g.data();
    float* md = m_[k].data();
    float* vd = v_[k].data();
    for (std::size_t i = 0; i < g.size(); ++i) {
      md[i] = beta1_ * md[i] + (1.0f - beta1_) * gd[i];
      vd[i] = beta2_ * vd[i] + (1.0f - beta2_) * gd[i] * gd[i];
      const float mhat = md[i] / bc1;
      const float vhat = vd[i] / bc2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::set_state(std::vector<Matrix> m, std::vector<Matrix> v, long t) {
  if (m.size() != params_.size() || v.size() != params_.size() || t < 0)
    throw std::invalid_argument("Adam::set_state: state does not match parameter list");
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (m[k].rows() != params_[k].value().rows() || m[k].cols() != params_[k].value().cols() ||
        v[k].rows() != params_[k].value().rows() || v[k].cols() != params_[k].value().cols())
      throw std::invalid_argument("Adam::set_state: moment shape mismatch at parameter " +
                                  std::to_string(k));
  }
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
}

float clip_grad_norm(const std::vector<Tensor>& params, float max_norm) {
  double total = 0.0;
  for (const auto& p : params) {
    const Matrix& g = p.grad();
    for (std::size_t i = 0; i < g.size(); ++i) total += static_cast<double>(g.data()[i]) * g.data()[i];
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float s = max_norm / norm;
    for (auto p : params) {
      Matrix& g = p.mutable_grad();
      for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] *= s;
    }
  }
  return norm;
}

}  // namespace paragraph::nn
