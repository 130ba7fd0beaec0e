// Layer abstraction for executable networks.
//
// Layers own their parameters and any state the backward pass needs
// (masks, cached pre-activations). The forward/backward contract is
// Caffe-like: the container passes the layer its input and takes its
// output; backward receives dL/d(output) and produces dL/d(input),
// accumulating parameter gradients internally.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "core/shape.hpp"
#include "core/tensor.hpp"

namespace gpucnn::nn {

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual std::string_view type() const = 0;

  /// Output shape for a given input shape; throws on invalid geometry.
  [[nodiscard]] virtual TensorShape output_shape(
      const TensorShape& in) const = 0;

  /// Computes `out` from `in`; `out` is resized by the layer.
  virtual void forward(const Tensor& in, Tensor& out) = 0;

  /// Computes dL/d`in` from dL/d`out`; parameter gradients accumulate
  /// into the layer's gradient tensors (zeroed by zero_grad()).
  virtual void backward(const Tensor& in, const Tensor& grad_out,
                        Tensor& grad_in) = 0;

  /// backward() for a layer whose input gradient nothing reads (the
  /// first layer of a network): accumulates the parameter gradients
  /// only. Default: the full backward into a discarded gradient.
  virtual void backward_params(const Tensor& in, const Tensor& grad_out) {
    Tensor unused;
    backward(in, grad_out, unused);
  }

  /// Learnable parameters and their gradients, pairwise aligned.
  [[nodiscard]] virtual std::vector<Tensor*> parameters() { return {}; }
  [[nodiscard]] virtual std::vector<Tensor*> gradients() { return {}; }

  /// Zeroes accumulated parameter gradients.
  void zero_grad() {
    for (Tensor* g : gradients()) g->fill(0.0F);
  }

  /// Toggles training-time behaviour (dropout).
  virtual void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const { return training_; }

  /// Enables empirical engine selection (tune::Autotuner) in layers that
  /// dispatch to convolution engines; a no-op elsewhere.
  virtual void set_auto_tune(bool) {}

  /// Fuses internal conv -> ReLU pairs in composite layers (inception
  /// branches); returns how many pairs were fused. Network-level pairs
  /// are fused by Network::fuse_conv_relu() instead.
  virtual std::size_t fuse_relu_pairs() { return 0; }

  /// Initialises parameters (default: nothing to initialise).
  virtual void initialize(Rng&) {}

  /// Pack-once/execute-many inference preparation: layers whose forward
  /// runs a weight GEMM pack the weights into micro-kernel panels here
  /// (blas/packed.hpp) and reuse the panels across every forward until
  /// the weights can change again (set_training(true), initialize,
  /// strategy switch, checkpoint load). Default: nothing to prepack.
  virtual void freeze_for_inference() {}

  /// Drops the panels freeze_for_inference packed: the weights were
  /// rewritten in place (load_parameters), so the next
  /// freeze_for_inference packs afresh. Default: nothing held.
  virtual void drop_prepack() {}

  /// Aliases `owner`'s packed weight panels into this layer (called by
  /// Network::share_parameters after the weight tensors themselves are
  /// aliased): all serving workers then share one packed copy. A no-op
  /// when the owner holds no pack or the layer types differ.
  virtual void adopt_prepack(const Layer& /*owner*/) {}

 protected:
  std::string name_;
  bool training_ = true;
};

}  // namespace gpucnn::nn
