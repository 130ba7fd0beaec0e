#include "nn/quantized_conv_layer.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::nn {
namespace {

void copy_tensor(const Tensor& src, Tensor& dst) {
  dst.resize(src.shape());
  const auto s = src.data();
  std::copy(s.begin(), s.end(), dst.data().begin());
}

}  // namespace

QuantizedConvLayer::QuantizedConvLayer(ConvLayer& source,
                                       quant::Observer::Kind observer_kind)
    : Layer(std::string(source.name())),
      geometry_(source.geometry()),
      fused_relu_(source.fused_relu()),
      auto_tune_(source.auto_tune()),
      observer_(observer_kind) {
  const auto params = source.parameters();
  copy_tensor(*params[0], weights_);
  copy_tensor(*params[1], bias_);
}

ConvConfig QuantizedConvLayer::config_for_batch(std::size_t batch) const {
  ConvConfig cfg = geometry_;
  cfg.batch = batch;
  return cfg;
}

TensorShape QuantizedConvLayer::output_shape(const TensorShape& in) const {
  check(in.c == geometry_.channels, "qconv: input channel mismatch");
  check(in.h == geometry_.input && in.w == geometry_.input,
        "qconv: input spatial size mismatch");
  return config_for_batch(in.n).output_shape();
}

void QuantizedConvLayer::freeze() {
  if (frozen_) return;
  const std::size_t ckk =
      geometry_.group_channels() * geometry_.kernel * geometry_.kernel;
  qweights_ = quant::quantize_filters(weights_.data(), geometry_.filters,
                                      ckk);
  if (observer_.seen()) {
    aq_ = observer_.quant();
    act_frozen_ = true;
  }
  frozen_ = true;
  obs::metrics().counter("quant.layers.frozen").add(1);
}

void QuantizedConvLayer::freeze_for_inference() {
  freeze();
  // Any live pack is already bit-identical (quantization and packing are
  // deterministic over the shared fp32 weights): keep sharing it.
  if (qprepacked_ != nullptr && !qprepacked_->groups.empty() &&
      qprepacked_->groups.front().valid()) {
    return;
  }
  qprepacked_ = std::make_shared<const conv::PackedQFilters>(
      conv::prepack_quantized_filters(geometry_, qweights_));
}

void QuantizedConvLayer::adopt_prepack(const Layer& owner) {
  const auto* q_owner = dynamic_cast<const QuantizedConvLayer*>(&owner);
  if (q_owner != nullptr && q_owner->qprepacked_ != nullptr) {
    qprepacked_ = q_owner->qprepacked_;
  }
}

void QuantizedConvLayer::forward(const Tensor& in, Tensor& out) {
  const ConvConfig cfg = config_for_batch(in.shape().n);
  out.resize(cfg.output_shape());

  if (!frozen_) {
    // Calibration mode: record the input range, answer in fp32 so the
    // downstream layers (and their observers) see exact activations.
    observer_.observe(in.data());
    tune::default_engine().forward(
        cfg, in, weights_, out, {.bias = bias_.data(), .relu = fused_relu_});
    return;
  }

  quant::ActQuant aq = aq_;
  if (!act_frozen_) {
    // Uncalibrated: dynamic per-batch range.
    const auto d = in.data();
    check(!d.empty(), "qconv forward needs a non-empty input");
    float lo = d[0];
    float hi = d[0];
    for (const float v : d) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    aq = quant::choose_act_quant(lo, hi);
  }

  // Engine selection: with autotuning on, ask for the int8 pool; the
  // tuner hands back an fp32 engine when int8 measured slower, in which
  // case the retained fp32 weights serve the layer unchanged.
  const conv::ConvEngine* tuned =
      auto_tune_ ? tune::Autotuner::instance().choose(
                       cfg, tune::Pass::kForward, tune::Dtype::kInt8)
                 : nullptr;
  if (tuned != nullptr && !tuned->quantized()) {
    tuned->forward(cfg, in, weights_, out,
                   {.bias = bias_.data(), .relu = fused_relu_});
    return;
  }
  conv::quantized_gemm_forward(cfg, in, qweights_, qprepacked_.get(), aq,
                               bias_.data(), fused_relu_, out);
}

void QuantizedConvLayer::backward(const Tensor&, const Tensor&, Tensor&) {
  throw Error("quantized conv '" + name_ +
              "' is inference-only: no backward pass");
}

}  // namespace gpucnn::nn
