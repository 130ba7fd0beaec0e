// Sequential network container: owns layers, caches activations for the
// backward pass, exposes parameter/gradient views for the optimiser.
//
// Executor features (all opt-in):
//   * fuse_conv_relu() — rewrites conv -> ReLU layer pairs into a single
//     fused ConvLayer (and fuses pairs inside composite layers), keeping
//     results bit-for-bit identical while removing a full pass over the
//     activation.
//   * enable_autotune() — lets every conv dispatch through the empirical
//     tune::Autotuner.
//   * set_memory_planning() — inference-only activation memory planner:
//     lifetime analysis assigns each intermediate activation an offset in
//     one shared arena (greedy first-fit over lifetime-overlapping
//     intervals), cutting peak activation memory from the sum of all
//     layer outputs to roughly the two largest adjacent ones. Planned
//     forwards keep no per-layer history, so backward() requires a
//     preceding unplanned (training-mode) forward.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "quant/quant.hpp"

namespace gpucnn::nn {

class Network {
 public:
  Network() = default;

  /// Appends a layer; returns a reference for further configuration.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// Output shape after all layers for a given input shape.
  [[nodiscard]] TensorShape output_shape(TensorShape in) const;

  /// Forward pass; keeps activations for backward(). Returns the final
  /// output.
  const Tensor& forward(const Tensor& input);

  /// Backward pass from dL/d(output); requires a preceding forward().
  /// Parameter gradients accumulate inside the layers. The first layer
  /// runs Layer::backward_params: the input's gradient is not computed.
  void backward(const Tensor& grad_output);

  /// All parameters / gradients across layers, pairwise aligned.
  [[nodiscard]] std::vector<Tensor*> parameters();
  [[nodiscard]] std::vector<Tensor*> gradients();

  void zero_grad();
  void set_training(bool training);
  void initialize(Rng& rng);

  /// Total learnable parameter count.
  [[nodiscard]] std::size_t parameter_count();

  /// Rebinds every parameter tensor as a view (Tensor::bind_external)
  /// over the matching parameter of `owner` — a structurally identical
  /// network (same layers, same shapes, e.g. built by the same factory).
  /// Weights are then stored once, however many sharing networks exist:
  /// the serving runtime's concurrent ModelInstances are the motivating
  /// caller. The owner must outlive this network; sharing networks must
  /// not train (their gradients stay private but their weights alias).
  void share_parameters(Network& owner);

  /// Pack-once/execute-many inference preparation: switches to inference
  /// mode and has every conv / FC layer pack its weights into blas
  /// micro-kernel panels (Layer::freeze_for_inference). Subsequent
  /// forwards reuse the cached panels — zero per-call weight packing —
  /// until training resumes (set_training(true) drops the caches).
  void freeze_for_inference();

  /// Fuses every ConvLayer -> ActivationLayer(kRelu) pair (top level and
  /// inside composite layers); returns the number of pairs fused. Safe
  /// to call once, after the network is fully built.
  std::size_t fuse_conv_relu();

  /// Toggles autotuned engine selection on every layer.
  void enable_autotune(bool on = true);

  /// Post-training int8 quantization report.
  struct QuantizeReport {
    std::size_t layers_quantized = 0;   ///< convs rewritten to int8
    std::size_t layers_calibrated = 0;  ///< of those, with observed ranges
    std::size_t calibration_batches = 0;
  };

  /// Rewrites every top-level ConvLayer into an int8 QuantizedConvLayer
  /// (weights quantized per channel offline), runs the given calibration
  /// batches through the network to observe per-layer activation ranges,
  /// then freezes the quantized layers. With no calibration data the
  /// layers quantize activations dynamically per batch. The network
  /// becomes inference-only: backward() through a quantized layer
  /// throws. Call after fuse_conv_relu() so fused ReLUs ride the int8
  /// epilogue. Convs inside composite layers are left in fp32.
  QuantizeReport quantize(std::span<const Tensor> calibration = {},
                          quant::Observer::Kind observer_kind =
                              quant::Observer::Kind::kMinMax);

  /// Toggles the inference activation planner (applies when the network
  /// is in inference mode, i.e. after set_training(false)).
  void set_memory_planning(bool on) { memory_planning_ = on; }
  [[nodiscard]] bool memory_planning() const { return memory_planning_; }

  /// Activation bytes of the last forward: planned (arena + unplanned
  /// tail) vs naive (every activation owned). Valid after a planned
  /// forward; both zero before.
  [[nodiscard]] std::size_t planned_activation_bytes() const {
    return planned_bytes_;
  }
  [[nodiscard]] std::size_t naive_activation_bytes() const {
    return naive_bytes_;
  }

 private:
  void plan_activations(const TensorShape& input_shape);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> activations_;  ///< activations_[i] = output of layer i
  Tensor input_;                     ///< cached network input
  bool has_forward_state_ = false;
  bool training_ = true;
  bool memory_planning_ = false;
  bool planned_forward_ = false;  ///< last forward used the arena
  std::vector<float, AlignedAllocator<float>> arena_;
  std::size_t planned_bytes_ = 0;
  std::size_t naive_bytes_ = 0;
};

}  // namespace gpucnn::nn
