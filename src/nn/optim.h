// First-order optimisers over a fixed parameter list.
#pragma once

#include <vector>

#include "nn/tensor.h"

namespace paragraph::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  // Applies one update using the gradients accumulated by backward().
  virtual void step() = 0;

  virtual void set_learning_rate(float lr) = 0;

  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
};

// ADAM (Kingma & Ba). The paper trains with Adam(lr = 0.01).
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr = 0.01f, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f);
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }

  // Moment/step-count access for checkpointing: a resumed run restores
  // the exact optimiser state, so its updates are bit-identical to an
  // uninterrupted run. set_state validates shapes against the parameter
  // list and throws std::invalid_argument on mismatch.
  const std::vector<Matrix>& moments1() const { return m_; }
  const std::vector<Matrix>& moments2() const { return v_; }
  long steps() const { return t_; }
  void set_state(std::vector<Matrix> m, std::vector<Matrix> v, long t);

 private:
  float lr_, beta1_, beta2_, eps_;
  std::vector<Matrix> m_, v_;
  long t_ = 0;
};

// Global gradient-norm clipping; returns the pre-clip norm.
float clip_grad_norm(const std::vector<Tensor>& params, float max_norm);

}  // namespace paragraph::nn
