#ifndef TSFM_OPTIM_OPTIM_H_
#define TSFM_OPTIM_OPTIM_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace tsfm::optim {

/// Base class for gradient-descent optimizers over a fixed parameter list.
/// Usage per step: forward, `loss.Backward()`, `Step()`, `ZeroGrad()`.
class Optimizer {
 public:
  explicit Optimizer(std::vector<ag::Var> params, float lr);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the gradients currently on the parameters.
  virtual void Step() = 0;

  /// Clears gradient accumulators on all parameters.
  void ZeroGrad();

  float lr() const { return lr_; }
  int64_t step_count() const { return step_count_; }

 protected:
  std::vector<ag::Var> params_;
  float lr_;
  int64_t step_count_ = 0;
};

/// Stochastic gradient descent with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ag::Var> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);

  void Step() override;

 private:
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba, 2015); `weight_decay` is the classic L2 form added to
/// the gradient.
class Adam : public Optimizer {
 public:
  Adam(std::vector<ag::Var> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f, float weight_decay = 0.0f);

  void Step() override;

 protected:
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  bool decoupled_ = false;  // AdamW-style decay when true
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// AdamW: Adam with decoupled weight decay (Loshchilov & Hutter, 2019).
class AdamW : public Adam {
 public:
  AdamW(std::vector<ag::Var> params, float lr, float beta1 = 0.9f,
        float beta2 = 0.999f, float epsilon = 1e-8f,
        float weight_decay = 0.01f);
};

/// Clips the global L2 norm of all parameter gradients to `max_norm`.
/// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<ag::Var>& params, float max_norm);

/// Cosine learning-rate schedule with linear warmup. Returns the multiplier
/// in (0, 1] for training step `step` of `total_steps`.
float CosineSchedule(int64_t step, int64_t total_steps, int64_t warmup_steps);

}  // namespace tsfm::optim

#endif  // TSFM_OPTIM_OPTIM_H_
