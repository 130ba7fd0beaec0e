#include "nn/conv_layer.hpp"

#include <cmath>

#include "blas/vector_ops.hpp"
#include "nn/activation_layer.hpp"

namespace gpucnn::nn {

ConvLayer::ConvLayer(std::string name, ConvConfig geometry,
                     conv::Strategy strategy)
    : Layer(std::move(name)),
      geometry_(geometry),
      engine_(&conv::strategy_engine(strategy)),
      weights_(geometry.filter_shape()),
      bias_(1, geometry.filters, 1, 1),
      grad_weights_(geometry.filter_shape()),
      grad_bias_(1, geometry.filters, 1, 1) {}

void ConvLayer::set_strategy(conv::Strategy strategy) {
  engine_ = &conv::strategy_engine(strategy);
  prepacked_.reset();
}

void ConvLayer::freeze_for_inference() {
  // Pack only for the engine the inference forward will run: the
  // tuner's pick at the geometry batch, otherwise the static engine.
  const conv::ConvEngine& engine = engine_for(geometry_, tune::Pass::kForward);
  // Already holding a live pack of this very buffer in that engine's
  // format (packed here earlier, or adopted from the weight owner):
  // keep sharing it.
  if (prepacked_ != nullptr && prepacked_->format == engine.name() &&
      prepacked_->source == weights_.data().data() && prepacked_->fresh()) {
    return;
  }
  prepacked_ = engine.prepack(geometry_, weights_);
}

void ConvLayer::adopt_prepack(const Layer& owner) {
  const auto* conv_owner = dynamic_cast<const ConvLayer*>(&owner);
  if (conv_owner != nullptr && conv_owner->prepacked_ != nullptr) {
    prepacked_ = conv_owner->prepacked_;
  }
}

ConvConfig ConvLayer::config_for_batch(std::size_t batch) const {
  ConvConfig cfg = geometry_;
  cfg.batch = batch;
  return cfg;
}

const conv::ConvEngine& ConvLayer::engine_for(const ConvConfig& cfg,
                                              tune::Pass pass) const {
  if (auto_tune_) {
    const conv::ConvEngine* tuned =
        tune::Autotuner::instance().choose(cfg, pass);
    if (tuned != nullptr) return *tuned;
  }
  return *engine_;
}

TensorShape ConvLayer::output_shape(const TensorShape& in) const {
  check(in.c == geometry_.channels, "conv: input channel mismatch");
  check(in.h == geometry_.input && in.w == geometry_.input,
        "conv: input spatial size mismatch");
  return config_for_batch(in.n).output_shape();
}

void ConvLayer::forward(const Tensor& in, Tensor& out) {
  const ConvConfig cfg = config_for_batch(in.shape().n);
  out.resize(cfg.output_shape());
  // One engine call: it reads the frozen pack when the pack is in its
  // format, and applies bias plus the fused ReLU — bit-identical to the
  // conv, add_bias, ActivationLayer(kRelu) sequence.
  engine_for(cfg, tune::Pass::kForward)
      .forward(cfg, in, weights_, out,
               {.bias = bias_.data(),
                .relu = fused_relu_,
                .packed = training_ ? nullptr : prepacked_.get()});
  if (fused_relu_ && training_) {
    // Save the ReLU mask for backward. Post-clamp out > 0 is equivalent
    // to pre-activation > 0 (the ActivationLayer backward test).
    const auto od = out.data();
    relu_mask_.resize(od.size());
    for (std::size_t i = 0; i < od.size(); ++i) {
      relu_mask_[i] = od[i] > 0.0F ? 1 : 0;
    }
  }
}

void ConvLayer::backward(const Tensor& in, const Tensor& grad_out,
                         Tensor& grad_in) {
  backward_into(in, grad_out, &grad_in);
}

void ConvLayer::backward_params(const Tensor& in, const Tensor& grad_out) {
  backward_into(in, grad_out, nullptr);
}

void ConvLayer::backward_into(const Tensor& in, const Tensor& grad_out,
                              Tensor* grad_in) {
  const ConvConfig cfg = config_for_batch(in.shape().n);
  const Tensor* grad = &grad_out;
  Tensor masked;
  if (fused_relu_) {
    // dL/d(pre-relu) = mask .* dL/d(out); everything below then matches
    // the unfused ConvLayer's backward on the masked gradient.
    check(relu_mask_.size() == grad_out.count(),
          "fused conv backward requires a preceding forward");
    masked.resize(grad_out.shape());
    const auto gd = grad_out.data();
    const auto md = masked.data();
    for (std::size_t i = 0; i < gd.size(); ++i) {
      md[i] = relu_mask_[i] != 0 ? gd[i] : 0.0F;
    }
    grad = &masked;
  }

  if (grad_in != nullptr) {
    grad_in->resize(cfg.input_shape());
    engine_for(cfg, tune::Pass::kBackwardData)
        .backward_data(cfg, *grad, weights_, *grad_in);
  }

  Tensor gw(cfg.filter_shape());
  engine_for(cfg, tune::Pass::kBackwardFilter)
      .backward_filter(cfg, in, *grad, gw);
  blas::axpy(1.0F, gw.data(), grad_weights_.data());
  blas::reduce_bias_grad(grad->data(), grad_bias_.data(), cfg.batch,
                         cfg.filters, cfg.output() * cfg.output());
}

void ConvLayer::initialize(Rng& rng) {
  const double fan_in = static_cast<double>(
      geometry_.group_channels() * geometry_.kernel * geometry_.kernel);
  const float bound = static_cast<float>(std::sqrt(6.0 / fan_in));
  weights_.fill_uniform(rng, -bound, bound);
  bias_.fill(0.0F);
  prepacked_.reset();  // panels packed from the previous weights
}

std::size_t fuse_conv_relu_pairs(std::vector<std::unique_ptr<Layer>>& layers) {
  std::size_t fused = 0;
  for (std::size_t i = 0; i + 1 < layers.size();) {
    auto* conv = dynamic_cast<ConvLayer*>(layers[i].get());
    auto* act = dynamic_cast<ActivationLayer*>(layers[i + 1].get());
    if (conv != nullptr && !conv->fused_relu() && act != nullptr &&
        act->function() == Activation::kRelu) {
      conv->set_fused_relu(true);
      layers.erase(layers.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      ++fused;
      continue;  // the erased slot may expose another pair at i
    }
    ++i;
  }
  return fused;
}

}  // namespace gpucnn::nn
