// Max / average pooling (paper §II.A: "pooling layers ... reduce the
// spatial size of feature map"). The layer keeps no state between
// passes: max-pool backward recomputes each window's winner from its
// input with forward's rule.
#pragma once

#include "nn/layer.hpp"

namespace gpucnn::nn {

enum class PoolMode { kMax, kAverage };

class PoolLayer final : public Layer {
 public:
  PoolLayer(std::string name, std::size_t window, std::size_t stride,
            PoolMode mode = PoolMode::kMax, std::size_t pad = 0);

  [[nodiscard]] std::string_view type() const override { return "pool"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in)
      const override;

  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

  [[nodiscard]] PoolMode mode() const { return mode_; }

 private:
  std::size_t window_;
  std::size_t stride_;
  std::size_t pad_;
  PoolMode mode_;
};

}  // namespace gpucnn::nn
