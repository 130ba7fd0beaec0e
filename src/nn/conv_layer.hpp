// Convolutional layer with a pluggable convolution engine — the paper's
// point that the same layer can be served by direct, unrolling or FFT
// strategies, with identical results but different cost profiles.
//
// Two executor upgrades ride on top of the pluggable engine:
//   * fused ReLU: when set_fused_relu(true), the layer computes
//     relu(conv + bias) in one engine call — in the engine's write-back
//     when it has a fused one (GEMM engines apply bias + clamp in the
//     SGEMM write-back tile), else in one bit-identical pass over the
//     finished output (conv::Epilogue). Backward masks the incoming
//     gradient with the ReLU mask saved in forward, making the fused
//     layer's gradients bit-for-bit equal to ConvLayer followed by
//     ActivationLayer(kRelu).
//   * autotuning: when set_auto_tune(true), every pass asks the
//     process-wide tune::Autotuner for the empirically fastest engine
//     for this (config, pass) key instead of the static strategy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "conv/conv_engine.hpp"
#include "nn/layer.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::nn {

class ConvLayer final : public Layer {
 public:
  /// `geometry.batch` is ignored: the layer adapts to the input batch.
  ConvLayer(std::string name, ConvConfig geometry,
            conv::Strategy strategy = conv::Strategy::kUnrolling);

  [[nodiscard]] std::string_view type() const override { return "conv"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in)
      const override;

  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;
  /// Skips the backward-data pass: only the filter and bias gradients.
  void backward_params(const Tensor& in, const Tensor& grad_out) override;

  [[nodiscard]] std::vector<Tensor*> parameters() override {
    return {&weights_, &bias_};
  }
  [[nodiscard]] std::vector<Tensor*> gradients() override {
    return {&grad_weights_, &grad_bias_};
  }

  /// Kaiming-uniform initialisation.
  void initialize(Rng& rng) override;

  [[nodiscard]] const ConvConfig& geometry() const { return geometry_; }
  [[nodiscard]] const conv::ConvEngine& engine() const { return *engine_; }

  /// Swaps the convolution strategy (weights are untouched; any packed
  /// filter cache is dropped — it is in the old engine's format).
  void set_strategy(conv::Strategy strategy);

  /// Packs the filters once in the format of the engine the inference
  /// forward runs — the autotuner's pick at the geometry batch when
  /// tuning is on, the static engine otherwise — so every subsequent
  /// forward on that engine consumes the cached panels (zero per-call
  /// weight packing). Holds no pack when that engine has no prepacked
  /// path; a forward on another engine (a different batch can tune
  /// differently) runs the staged path.
  void freeze_for_inference() override;

  /// Returning to training drops the packed cache: the optimizer is
  /// about to rewrite the weights the panels were built from.
  void set_training(bool training) override {
    if (training) prepacked_.reset();
    Layer::set_training(training);
  }

  void adopt_prepack(const Layer& owner) override;
  void drop_prepack() override { prepacked_.reset(); }

  /// The packed filter cache (nullptr until freeze_for_inference);
  /// exposed so tests can assert sharing and invalidation.
  [[nodiscard]] std::shared_ptr<const conv::PackedFilters> prepacked()
      const {
    return prepacked_;
  }

  /// Folds a downstream ReLU into this layer (see the header comment).
  void set_fused_relu(bool fused) { fused_relu_ = fused; }
  [[nodiscard]] bool fused_relu() const { return fused_relu_; }

  void set_auto_tune(bool on) override { auto_tune_ = on; }
  [[nodiscard]] bool auto_tune() const { return auto_tune_; }

  /// The geometry with the batch substituted — the autotuner cache key
  /// for this layer at a given batch size.
  [[nodiscard]] ConvConfig config_for_batch(std::size_t batch) const;

 private:
  /// Engine for one pass: the autotuner's pick when tuning is on (and
  /// the tuner is not in off mode), the static engine otherwise.
  [[nodiscard]] const conv::ConvEngine& engine_for(const ConvConfig& cfg,
                                                   tune::Pass pass) const;

  /// The backward pass; the input gradient is computed only when
  /// `grad_in` is non-null.
  void backward_into(const Tensor& in, const Tensor& grad_out,
                     Tensor* grad_in);

  ConvConfig geometry_;
  const conv::ConvEngine* engine_;  ///< a conv::registry() instance
  Tensor weights_;
  Tensor bias_;
  Tensor grad_weights_;
  Tensor grad_bias_;
  bool fused_relu_ = false;
  bool auto_tune_ = false;
  std::vector<std::uint8_t> relu_mask_;  ///< out > 0, saved by forward
  /// Filters packed once by freeze_for_inference (or adopted from the
  /// weight owner); shared, never mutated after construction.
  std::shared_ptr<const conv::PackedFilters> prepacked_;
};

/// Folds every ConvLayer -> ReLU ActivationLayer pair of a sequential
/// layer list into the fused ConvLayer, erasing the activation; returns
/// the number of pairs fused. Conv layers already fused are left alone.
std::size_t fuse_conv_relu_pairs(std::vector<std::unique_ptr<Layer>>& layers);

}  // namespace gpucnn::nn
