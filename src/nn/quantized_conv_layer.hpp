// Int8 inference replacement for ConvLayer, installed by
// Network::quantize().
//
// The layer keeps the source layer's fp32 weights (so an fp32 fallback
// and re-calibration stay possible) plus an offline per-channel int8
// copy packed once at freeze(). Activations are quantized per tensor:
// either from a calibrated range — an Observer records the layer's
// input range during the calibration forwards Network::quantize() runs
// — or, when no calibration data was supplied, dynamically from each
// batch's own min/max.
//
// Life cycle: constructed from a ConvLayer the layer starts in observe
// mode (forwards run fp32 and feed the observer); freeze() quantizes
// the weights and pins the activation range; subsequent forwards run
// the int8 path. Output stays fp32 (dequantized in the GEMM epilogue),
// so any layer — including the final classifier — can follow.
//
// Backward throws: quantization is an inference-only transform.
#pragma once

#include "conv/quantized_conv.hpp"
#include "nn/conv_layer.hpp"
#include "quant/quant.hpp"

namespace gpucnn::nn {

class QuantizedConvLayer final : public Layer {
 public:
  /// Copies `source`'s geometry, weights, bias and fused-ReLU /
  /// autotune flags. The layer starts in observe (calibration) mode.
  explicit QuantizedConvLayer(ConvLayer& source,
                              quant::Observer::Kind observer_kind =
                                  quant::Observer::Kind::kMinMax);

  [[nodiscard]] std::string_view type() const override { return "qconv"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in)
      const override;

  void forward(const Tensor& in, Tensor& out) override;
  /// Throws Error: the quantized layer cannot train.
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

  /// The retained fp32 parameters (weight sharing across serving
  /// instances still works; gradients stay empty — nothing trains).
  [[nodiscard]] std::vector<Tensor*> parameters() override {
    return {&weights_, &bias_};
  }

  void set_auto_tune(bool on) override { auto_tune_ = on; }

  /// Packs the int8 weights and pins the activation range from the
  /// observer (when it saw any data; otherwise the layer quantizes
  /// activations dynamically per batch). Idempotent.
  void freeze();
  [[nodiscard]] bool frozen() const { return frozen_; }
  /// True when the activation range came from calibration data.
  [[nodiscard]] bool calibrated() const { return act_frozen_; }

  /// Freezes (if not yet frozen) and packs the int8 weights into igemm
  /// quad tiles; every subsequent forward consumes the cached tiles.
  void freeze_for_inference() override;

  void adopt_prepack(const Layer& owner) override;

  [[nodiscard]] std::shared_ptr<const conv::PackedQFilters> prepacked()
      const {
    return qprepacked_;
  }

  [[nodiscard]] const ConvConfig& geometry() const { return geometry_; }
  [[nodiscard]] bool fused_relu() const { return fused_relu_; }
  /// The frozen activation parameters; meaningful when calibrated().
  [[nodiscard]] const quant::ActQuant& act_quant() const { return aq_; }

 private:
  [[nodiscard]] ConvConfig config_for_batch(std::size_t batch) const;

  ConvConfig geometry_;
  Tensor weights_;
  Tensor bias_;
  bool fused_relu_ = false;
  bool auto_tune_ = false;
  bool frozen_ = false;
  bool act_frozen_ = false;
  quant::Observer observer_;
  quant::ActQuant aq_;
  quant::QuantizedFilters qweights_;
  /// Int8 weight tiles packed once by freeze_for_inference; panels
  /// reference qweights_.data, which the layer owns and never rewrites.
  std::shared_ptr<const conv::PackedQFilters> qprepacked_;
};

}  // namespace gpucnn::nn
